#include "integration/sim_digest.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>

#include "collab/session.hpp"
#include "core/qvr_system.hpp"
#include "fault/schedule.hpp"
#include "scene/benchmarks.hpp"

namespace qvr::digest
{

namespace
{

/** The benchmark's per-run seed derivation (splitmix64 of a tag). */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t word(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t word(std::uint64_t v) { return v; }

/** 64-bit FNV-1a over little-endian 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

/** Hashed per-frame fields: those perfbench's digest() covers, the
 *  resolution fraction read from the partition cache, and (sessions
 *  only, the last kSessionFields) the serving fields. */
const char *const kFrameFields[] = {
    "mtpLatency", "displayTime", "frameInterval", "transmittedBytes",
    "e1", "e2", "gpuBusy", "reprojected", "degradationLevel",
    "localFallback", "linkRetries", "lostLayers", "energy",
    "renderedResolutionFraction", "serveQueueWait", "serveAdmitted",
    "tComposition"};
constexpr std::size_t kAllFields = std::size(kFrameFields);
constexpr std::size_t kSessionFields = 3;

/** One word per name in kFrameFields, in order. */
std::array<std::uint64_t, kAllFields>
frameWords(const core::FrameStats &f)
{
    return {word(f.mtpLatency),
            word(f.displayTime),
            word(f.frameInterval),
            word(f.transmittedBytes),
            word(f.e1),
            word(f.e2),
            word(f.gpuBusy),
            word(std::uint64_t{f.reprojected}),
            word(std::uint64_t{f.degradationLevel}),
            word(std::uint64_t{f.localFallback}),
            word(std::uint64_t{f.linkRetries}),
            word(std::uint64_t{f.lostLayers}),
            word(f.energy.total()),
            word(f.renderedResolutionFraction),
            word(f.serveQueueWait),
            word(std::uint64_t{f.serveAdmitted}),
            word(f.tComposition)};
}

std::string
hexfloat(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

class RunBuilder
{
  public:
    explicit RunBuilder(std::string name) { run_.name = std::move(name); }

    void
    real(const std::string &name, double v)
    {
        run_.fields.push_back({name, hexfloat(v)});
    }

    void
    count(const std::string &name, std::uint64_t v)
    {
        run_.fields.push_back({name, std::to_string(v)});
    }

    /** One hash per field (the first @p fields of kFrameFields) over
     *  every frame of @p results, in order. */
    void
    frames(const std::vector<core::PipelineResult> &results,
           std::size_t fields)
    {
        std::uint64_t n = 0;
        std::array<Fnv1a, kAllFields> h;
        for (const auto &r : results) {
            n += r.frames.size();
            for (const auto &f : r.frames) {
                const auto words = frameWords(f);
                for (std::size_t k = 0; k < fields; k++)
                    h[k].add(words[k]);
            }
        }
        count("frames", n);
        for (std::size_t k = 0; k < fields; k++) {
            std::ostringstream os;
            os << std::hex << h[k].h;
            run_.fields.push_back(
                {std::string("fnv.") + kFrameFields[k], os.str()});
        }
    }

    Run take() { return std::move(run_); }

  private:
    Run run_;
};

/** perfbench's single-user grid at @p frames frames per cell. */
void
singleUserRuns(std::uint64_t seed, std::size_t frames,
               std::vector<Run> &out)
{
    const Seconds horizon =
        static_cast<double>(frames) / vr_requirements::kMinFrameRate;
    const fault::FaultSchedule worst =
        fault::standardSuite(deriveSeed(seed, 0xfa17), horizon)
            .back()
            .schedule;

    const auto run = [&](core::DesignPoint d, const std::string &scene,
                         std::size_t scene_index, bool faulted) {
        core::ExperimentSpec spec;
        spec.benchmark = scene;
        spec.numFrames = frames;
        spec.seed = deriveSeed(seed, scene_index);
        if (faulted)
            spec.faults = worst;
        const core::PipelineResult r = core::runExperiment(d, spec);

        RunBuilder b("s" + std::to_string(seed) + "/single/" + r.design +
                     "/" + scene + (faulted ? "/worst" : "/wifi"));
        b.real("meanMtp", r.meanMtp());
        b.real("meanFps", r.meanFps());
        b.real("fpsCompliance", r.fpsCompliance());
        b.real("meanTransmittedBytes", r.meanTransmittedBytes());
        b.real("meanE1", r.meanE1());
        b.real("meanResolutionFraction", r.meanResolutionFraction());
        b.real("meanEnergy", r.meanEnergy());
        b.frames({r}, kAllFields - kSessionFields);
        out.push_back(b.take());
    };

    const auto &scenes = scene::table3Benchmarks();
    for (const core::DesignPoint d :
         {core::DesignPoint::Local, core::DesignPoint::Static,
          core::DesignPoint::Qvr, core::DesignPoint::QvrCompressed})
        for (std::size_t s = 0; s < scenes.size(); s++)
            run(d, scenes[s].name, s, false);
    for (const core::DesignPoint d :
         {core::DesignPoint::Qvr, core::DesignPoint::Resilient})
        for (std::size_t s = 0; s < scenes.size(); s++)
            run(d, scenes[s].name, s, true);
}

/** EDF + admission, event engine, 2 chiplet slots per shard. */
collab::SessionConfig
servedConfig(std::uint32_t shards)
{
    collab::SessionConfig cfg;
    cfg.benchmark = "HL2-H";
    cfg.design = collab::SessionDesign::Served;
    cfg.engine = collab::SessionEngine::Event;
    cfg.totalChiplets = 4 * shards;
    cfg.chipletsPerRequest = 2;
    cfg.serverEgress = fromMbps(2000.0 * shards);
    cfg.serving.shards = shards;
    cfg.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    cfg.serving.admission.enabled = true;
    return cfg;
}

Run
sessionRun(const std::string &name, const collab::SessionConfig &cfg)
{
    const collab::SessionResult r = collab::runSession(cfg);
    const collab::SessionAggregate &a = r.aggregate;
    RunBuilder b(name);
    b.count("users", a.users);
    b.real("meanFps", a.meanFps);
    b.real("worstUserFps", a.worstUserFps);
    b.real("meanMtp", a.meanMtp);
    b.real("fpsCompliance", a.fpsCompliance);
    b.real("bytesPerFrame", a.bytesPerFrame);
    b.real("horizon", a.horizon);
    b.real("p50QueueWait", a.p50QueueWait);
    b.real("p99QueueWait", a.p99QueueWait);
    b.real("deadlineMissRate", a.deadlineMissRate);
    b.count("shedFrames", a.shedFrames);
    b.count("downgradedFrames", a.downgradedFrames);
    b.count("submitted", r.serveCounters.submitted);
    b.count("admitted", r.serveCounters.admitted);
    b.count("shed", r.serveCounters.shed);
    b.count("downgraded", r.serveCounters.downgraded);
    b.count("deadlineMisses", r.serveCounters.deadlineMisses);
    b.count("batches", r.serveCounters.batches);
    b.real("egressUtilisation", r.egressUtilisation);
    b.real("serverUtilisation", r.serverUtilisation);
    b.count("arrivals", r.openLoop.arrivals);
    b.count("roams", r.openLoop.roams);
    b.count("peakActiveUsers", r.openLoop.peakActiveUsers);
    for (std::size_t s = 0; s < r.shardUtilisation.size(); s++)
        b.real("shardUtilisation" + std::to_string(s),
               r.shardUtilisation[s]);
    b.frames(r.perUser, kAllFields);
    return b.take();
}

/** perfbench's fleet-closed cohorts, reduced. */
void
closedRuns(std::uint64_t seed, std::vector<Run> &out)
{
    for (std::size_t cohort = 0; cohort < 2; cohort++) {
        collab::SessionConfig cfg = servedConfig(1);
        cfg.users = 8;
        cfg.numFrames = 30;
        cfg.seed = deriveSeed(seed, 0xc0 + cohort);
        out.push_back(sessionRun("s" + std::to_string(seed) +
                                     "/closed/cohort" +
                                     std::to_string(cohort),
                                 cfg));
    }
}

/** perfbench's fleet-open episode, reduced to a short horizon. */
void
openRuns(std::uint64_t seed, std::vector<Run> &out)
{
    constexpr std::uint32_t kShards = 4;
    collab::SessionConfig cfg = servedConfig(kShards);
    cfg.users = 1;
    cfg.numFrames = 1;
    cfg.serving.balancer.policy =
        serve::BalancerPolicy::BoundedLoadConsistentHash;
    cfg.seed = deriveSeed(seed, 0x0e0);
    cfg.openLoop.enabled = true;
    cfg.openLoop.horizon = 0.25;
    core::ArrivalConfig &a = cfg.openLoop.arrivals;
    a.kind = core::ArrivalKind::Mmpp;
    a.states = {{30.0 * kShards, 0.25}, {150.0 * kShards, 0.0625}};
    a.minFrames = 8;
    a.maxFrames = 24;
    a.roamRate = 0.3;
    a.mix = {{"HL2-H", 2.0}, {"Doom3-H", 1.0}, {"Viking", 1.0}};
    a.seed = deriveSeed(seed, 0x0a00);
    out.push_back(
        sessionRun("s" + std::to_string(seed) + "/open/episode0", cfg));
}

}  // namespace

std::vector<Run>
simulateDigestRuns()
{
    std::vector<Run> runs;
    for (const std::uint64_t seed : {1u, 7u}) {
        singleUserRuns(seed, 60, runs);
        closedRuns(seed, runs);
        openRuns(seed, runs);
    }
    return runs;
}

void
writeDigest(std::ostream &os, const std::vector<Run> &runs)
{
    for (const Run &r : runs)
        for (const Field &f : r.fields)
            os << r.name << ' ' << f.name << ' ' << f.value << '\n';
}

std::vector<Run>
readDigest(std::istream &is)
{
    std::vector<Run> runs;
    std::string run, field, value;
    while (is >> run >> field >> value) {
        if (runs.empty() || runs.back().name != run)
            runs.push_back(Run{run, {}});
        runs.back().fields.push_back({field, value});
    }
    return runs;
}

}  // namespace qvr::digest
