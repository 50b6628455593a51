/**
 * @file
 * The two fleet workloads, both SessionDesign::Served on the event
 * engine with EDF + admission and aggregate telemetry:
 *
 *  - fleet-closed: closed-loop cohorts of HL2-H users on one shard of
 *    two chiplet slots each (the bench_fleet_capacity --large operating
 *    point), sized near the 90 Hz knee;
 *  - fleet-open: open-loop MMPP flash crowds (30 / 150 users/s per
 *    shard) over 4 shards behind the bounded-load consistent-hash
 *    balancer, 8-24-frame roaming sessions of a HL2-H/Doom3-H/Viking
 *    mix (the bench_fleet_capacity --open-loop cell).
 *
 * The traced run times collab::runSession, then replays the layers the
 * session calls internally — WorkloadStream::next, PartitionOracle,
 * LIWC, UCA timing, Fleet::submitTick and the event kernel — on the
 * inputs the run generated, and reports what is left as the collab
 * residual.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "collab/session.hpp"
#include "core/workload_stream.hpp"
#include "harness.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "single_user.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

// fleet-closed: cohorts x users x frames.
constexpr std::size_t kCohorts = 4;
constexpr std::size_t kCohortUsers = 20;
constexpr std::size_t kCohortFrames = 90;

// fleet-open: episodes of one 4-shard flash-crowd session each.
constexpr std::size_t kEpisodes = 2;
constexpr std::uint32_t kOpenShards = 4;
constexpr Seconds kOpenHorizon = 1.5;
constexpr double kCalmUsersPerShard = 30.0;
constexpr double kFlashUsersPerShard = 150.0;
constexpr Seconds kCalmDwell = 0.25;
constexpr Seconds kFlashDwell = 0.0625;
/** Arrival seeds drawn per episode; the median-load one is used. */
constexpr std::size_t kArrivalCandidates = 9;

/** Session stage constants the replays rebuild requests with. */
constexpr Seconds kSensor = 2e-3;
constexpr Seconds kControlLogic = 0.8e-3;
constexpr Seconds kUplink = 1.0e-3;

/** EDF + admission on the pool-bound --large hardware, per shard. */
collab::SessionConfig
servedConfig(std::uint32_t shards)
{
    collab::SessionConfig cfg;
    cfg.benchmark = "HL2-H";
    cfg.design = collab::SessionDesign::Served;
    cfg.engine = collab::SessionEngine::Event;
    cfg.aggregateTelemetry = true;
    cfg.totalChiplets = 4 * shards;
    cfg.chipletsPerRequest = 2;
    cfg.serverEgress = fromMbps(2000.0 * shards);
    cfg.serving.shards = shards;
    cfg.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    cfg.serving.admission.enabled = true;
    return cfg;
}

collab::SessionConfig
closedConfig(std::uint64_t seed, std::size_t cohort)
{
    collab::SessionConfig cfg = servedConfig(1);
    cfg.users = kCohortUsers;
    cfg.numFrames = kCohortFrames;
    cfg.seed = deriveSeed(seed, 0xc0 + cohort);
    return cfg;
}

collab::SessionConfig
openConfig(std::uint64_t seed, std::size_t episode)
{
    collab::SessionConfig cfg = servedConfig(kOpenShards);
    cfg.users = 1;      // the arrival process sizes the population
    cfg.numFrames = 1;  // and the per-user session lengths
    cfg.serving.balancer.policy =
        serve::BalancerPolicy::BoundedLoadConsistentHash;
    cfg.seed = deriveSeed(seed, 0x0e0 + episode);
    cfg.openLoop.enabled = true;
    cfg.openLoop.horizon = kOpenHorizon;
    core::ArrivalConfig &a = cfg.openLoop.arrivals;
    a.kind = core::ArrivalKind::Mmpp;
    a.states = {{kCalmUsersPerShard * kOpenShards, kCalmDwell},
                {kFlashUsersPerShard * kOpenShards, kFlashDwell}};
    a.minFrames = 8;
    a.maxFrames = 24;
    a.roamRate = 0.3;
    a.mix = {{"HL2-H", 2.0}, {"Doom3-H", 1.0}, {"Viking", 1.0}};

    // Stratify the offered load: of kArrivalCandidates derived arrival
    // seeds, take the one whose episode brings the median number of
    // users.  The seed then decides who arrives and when, while every
    // seed offers a comparable load (and per-user state, the bulk of
    // the memory).
    std::vector<std::pair<std::size_t, std::uint64_t>> candidates;
    for (std::size_t k = 0; k < kArrivalCandidates; k++) {
        a.seed = deriveSeed(seed, 0x0a00 + episode * kArrivalCandidates + k);
        candidates.emplace_back(
            core::generateArrivals(a, cfg.openLoop.horizon).size(), a.seed);
    }
    std::sort(candidates.begin(), candidates.end());
    a.seed = candidates[kArrivalCandidates / 2].second;
    return cfg;
}

/** Byte-faithful digest of an aggregate-telemetry session. */
std::string
aggregateDigest(const collab::SessionResult &r)
{
    const collab::SessionAggregate &a = r.aggregate;
    std::ostringstream os;
    os << std::hexfloat << a.users << ';' << a.meanFps << ';'
       << a.worstUserFps << ';' << a.meanMtp << ';' << a.fpsCompliance
       << ';' << a.bytesPerFrame << ';' << a.horizon << ';'
       << a.p50QueueWait << ';' << a.p99QueueWait << ';'
       << a.deadlineMissRate << ';' << a.shedFrames << ';'
       << a.downgradedFrames << ';' << r.serveCounters.submitted << ';'
       << r.serveCounters.admitted << ';' << r.serveCounters.shed << ';'
       << r.serveCounters.downgraded << ';'
       << r.serveCounters.deadlineMisses << ';' << r.serveCounters.batches
       << ';' << r.egressUtilisation << ';' << r.serverUtilisation << ';'
       << r.openLoop.arrivals << ';' << r.openLoop.roams << ';'
       << r.openLoop.peakActiveUsers;
    for (const double u : r.shardUtilisation)
        os << ';' << u;
    return os.str();
}

/** One simulated user whose frames the traced run replays. */
struct ReplayUser
{
    std::string benchmark;
    std::uint64_t seed = 0;
    std::size_t frames = 0;
    std::uint32_t batchKey = 0;
    const core::PipelineResult *result = nullptr;
};

/** Host seconds and counts of the fleet layer replays. */
struct FleetReplay
{
    double scene = 0.0, foveation = 0.0, liwc = 0.0, uca = 0.0;
    double serve = 0.0, sim = 0.0;
    std::uint64_t frames = 0, batches = 0, resolves = 0, cacheEntries = 0;
    std::uint64_t requests = 0, events = 0, ucaEyes = 0;
    double borderTiles = 0.0, interiorTiles = 0.0, ucaBusy = 0.0;
    double checksum = 0.0;
};

Seconds
issueOf(const core::FrameStats &f)
{
    return f.displayTime - (f.mtpLatency - kSensor);
}

/**
 * Replay the layers one Served session calls internally, on the
 * session's own inputs: per-user workload streams with the session's
 * seeds, the e1/e2 of its FrameStats, and requests at its issue times
 * (grouped into ticks by round when @p roundTicks, else by 90 Hz
 * windows of simulated time).
 */
void
replaySession(const collab::SessionConfig &cfg,
              const std::vector<ReplayUser> &users, bool roundTicks,
              FleetReplay &rp, Tracer *tracer, std::uint32_t parent)
{
    core::ExperimentSpec session_spec;
    session_spec.benchmark = cfg.benchmark;
    session_spec.channel = cfg.lastMile;
    const core::PipelineConfig pc = session_spec.toConfig();
    const foveation::LayerGeometry geometry(pc.display(), pc.mar);
    const gpu::MobileGpuModel gpu_model(pc.gpuConfig, pc.gpuCost);

    // Scene: each user's stream, frame by frame.
    std::vector<std::vector<FrameInput>> inputs(users.size());
    {
        const ScopedSpan span(tracer, "scene.replay", parent);
        const auto t0 = Clock::now();
        for (std::size_t u = 0; u < users.size(); u++) {
            core::ExperimentSpec spec;
            spec.benchmark = users[u].benchmark;
            spec.channel = cfg.lastMile;
            spec.numFrames = users[u].frames;
            spec.seed = users[u].seed;
            core::WorkloadStream stream(spec);
            inputs[u].reserve(users[u].frames);
            for (std::size_t i = 0; i < users[u].frames; i++) {
                const scene::FrameWorkload &f = stream.next();
                inputs[u].push_back(
                    {Vec2{f.motionSeen.gaze.x, f.motionSeen.gaze.y},
                     f.motionDelta, f.totalTriangles(), f.batches.size()});
            }
        }
        rp.scene += secondsSince(t0);
    }
    for (const auto &v : inputs) {
        rp.frames += v.size();
        for (const FrameInput &in : v)
            rp.batches += in.batches;
    }

    // Foveation: the session's one shared partition oracle.
    std::vector<std::vector<double>> periphery(users.size());
    {
        const ScopedSpan span(tracer, "foveation.replay", parent);
        const auto t0 = Clock::now();
        foveation::PartitionOracle oracle(geometry);
        for (std::size_t u = 0; u < users.size(); u++) {
            const auto &frames = users[u].result->frames;
            periphery[u].resize(frames.size());
            for (std::size_t i = 0; i < frames.size(); i++) {
                const Vec2 gaze = inputs[u][i].gaze;
                const auto &r = oracle.resolve(frames[i].e1, gaze);
                rp.checksum +=
                    geometry.foveaAreaFraction(r.partition.e1, gaze) +
                    geometry.linearResolutionFraction(r.partition);
                periphery[u][i] = r.pixels.peripheryPixels() * 2.0;
            }
            rp.resolves += frames.size();
        }
        rp.cacheEntries += oracle.cacheSize();
        rp.foveation += secondsSince(t0);
    }

    // LIWC: one controller per user; updates on admitted frames.
    {
        const ScopedSpan span(tracer, "core.liwc.replay", parent);
        const auto t0 = Clock::now();
        const BitsPerSecond ack = cfg.lastMile.nominalDownlink *
                                  cfg.lastMile.protocolEfficiency;
        for (std::size_t u = 0; u < users.size(); u++) {
            const scene::BenchmarkInfo &bench =
                scene::findBenchmark(users[u].benchmark);
            core::Liwc liwc(pc.liwcConfig, geometry,
                            gpu_model.triangleThroughput(
                                bench.shadingCost,
                                static_cast<double>(bench.pixelsPerEye()) /
                                    static_cast<double>(
                                        bench.meanTriangles)),
                            ack, pc.codecConfig.baseBitsPerPixel, 5.0,
                            bench.centerConcentration);
            const auto &frames = users[u].result->frames;
            for (std::size_t i = 0; i < frames.size(); i++) {
                const FrameInput &in = inputs[u][i];
                const core::LiwcDecision d = liwc.selectEccentricity(
                    in.delta, in.triangles * 2, in.gaze);
                if (!frames[i].serveAdmitted)
                    continue;
                core::LiwcFeedback fb;
                fb.measuredLocal = frames[i].tLocalRender;
                fb.measuredRemote = frames[i].tRemoteBranch;
                fb.renderedTriangles = frames[i].localTriangles;
                fb.peripheryPixels = periphery[u][i];
                fb.peripheryBytes = frames[i].transmittedBytes;
                fb.ackThroughput = ack;
                liwc.update(d, fb);
            }
        }
        rp.liwc += secondsSince(t0);
    }

    // UCA timing: one model per user, both eyes per frame.
    {
        const ScopedSpan span(tracer, "core.uca.replay", parent);
        const auto t0 = Clock::now();
        const auto &display = geometry.display();
        const double ppd = display.pixelsPerDegree();
        for (std::size_t u = 0; u < users.size(); u++) {
            core::UcaTimingModel uca;
            const auto &frames = users[u].result->frames;
            for (std::size_t i = 0; i < frames.size(); i++) {
                const core::FrameStats &f = frames[i];
                core::PixelPartition pp;
                pp.centerX = display.width / 2.0 + inputs[u][i].gaze.x * ppd;
                pp.centerY =
                    display.height / 2.0 + inputs[u][i].gaze.y * ppd;
                pp.foveaRadius = f.e1 * ppd;
                pp.middleRadius = f.e2 * ppd;
                const Seconds cpu_done = issueOf(f) + kControlLogic;
                for (int eye = 0; eye < 2; eye++) {
                    const core::UcaTimingResult r = uca.processFrame(
                        display.width, display.height, pp,
                        cpu_done + f.tLocalRender,
                        cpu_done + f.tRemoteBranch);
                    rp.borderTiles += r.borderTiles;
                    rp.interiorTiles += r.interiorTiles;
                    rp.ucaBusy += r.busy;
                    rp.ucaEyes++;
                }
            }
        }
        rp.uca += secondsSince(t0);
    }

    // Serve: the session's requests through a fresh fleet, one
    // submitTick per tick.
    struct Req
    {
        std::int64_t tick;
        Seconds issue;
        std::uint32_t user;
        serve::RenderRequest r;
    };
    std::vector<Req> reqs;
    for (std::size_t u = 0; u < users.size(); u++) {
        const auto &frames = users[u].result->frames;
        for (std::size_t i = 0; i < frames.size(); i++) {
            const core::FrameStats &f = frames[i];
            Req q;
            q.issue = issueOf(f);
            q.tick = roundTicks
                         ? static_cast<std::int64_t>(i)
                         : static_cast<std::int64_t>(std::floor(
                               q.issue * vr_requirements::kMinFrameRate));
            q.user = static_cast<std::uint32_t>(u);
            q.r.user = q.user;
            q.r.frame = f.index;
            q.r.arrival = q.issue + kControlLogic + kUplink;
            q.r.deadline = q.r.arrival + cfg.renderDeadline;
            q.r.service = f.tRemoteRender;
            q.r.triangles = inputs[u][i].triangles * 2 - f.localTriangles;
            q.r.batchKey = users[u].batchKey;
            reqs.push_back(q);
        }
    }
    std::sort(reqs.begin(), reqs.end(), [](const Req &a, const Req &b) {
        if (a.tick != b.tick)
            return a.tick < b.tick;
        if (a.issue != b.issue)
            return a.issue < b.issue;
        return a.user < b.user;
    });
    {
        serve::FleetConfig fc = cfg.serving;
        fc.server.chiplets = cfg.chipletsPerRequest;
        fc.batching.syncOverhead = fc.server.syncOverhead;
        if (fc.scheduler.slots == 0)
            fc.scheduler.slots = std::max<std::uint32_t>(
                1, std::max<std::uint32_t>(
                       1, cfg.totalChiplets / cfg.chipletsPerRequest) /
                       fc.shards);
        serve::Fleet fleet(fc);
        const ScopedSpan span(tracer, "serve.replay", parent);
        double busy = 0.0;
        std::vector<serve::RenderRequest> tick;
        for (std::size_t k = 0; k < reqs.size();) {
            tick.clear();
            const std::int64_t key = reqs[k].tick;
            for (; k < reqs.size() && reqs[k].tick == key; k++) {
                reqs[k].r.seq = fleet.nextSeq();
                tick.push_back(reqs[k].r);
            }
            const auto t0 = Clock::now();
            fleet.submitTick(tick);
            busy += secondsSince(t0);
        }
        rp.serve += busy;
        rp.requests += reqs.size();
    }

    // Event kernel: each user's issue -> complete chain at the
    // session's issue times (two events per user-frame).
    {
        const ScopedSpan span(tracer, "sim.replay", parent);
        const auto t0 = Clock::now();
        sim::EventQueue q;
        struct Chain
        {
            const std::vector<core::FrameStats> *frames;
            std::size_t next = 0;
        };
        std::vector<Chain> chains(users.size());
        std::function<void(std::size_t)> issue;
        issue = [&](std::size_t u) {
            Chain &c = chains[u];
            c.next++;
            q.schedule(q.now(), [&, u] {
                Chain &cc = chains[u];
                if (cc.next < cc.frames->size())
                    q.schedule(std::max(q.now(),
                                        issueOf((*cc.frames)[cc.next])),
                               [&, u] { issue(u); });
            }, 1);
        };
        for (std::size_t u = 0; u < users.size(); u++) {
            chains[u].frames = &users[u].result->frames;
            if (!chains[u].frames->empty())
                q.schedule(issueOf(chains[u].frames->front()),
                           [&, u] { issue(u); });
        }
        q.run();
        rp.sim += secondsSince(t0);
        rp.events += q.dispatched();
    }
}

/** Per-layer metrics and split shared by both fleet workloads. */
void
reportFleetLayers(const std::string &name, Report &rep,
                  const FleetReplay &rp, double session_seconds,
                  double traced_seconds, double traced_frames,
                  double untraced_rate, double traced_rate)
{
    const double us = 1e6;
    const double f = static_cast<double>(rp.frames);
    const double collab_us = session_seconds / traced_frames * us;
    const double scene_us = rp.scene / f * us;
    const double fov_us = rp.foveation / f * us;
    const double liwc_us = rp.liwc / f * us;
    const double uca_us = rp.uca / f * us;
    const double serve_us = rp.serve / f * us;
    const double sim_us = rp.sim / f * us;
    const double residual_us =
        collab_us - scene_us - fov_us - liwc_us - uca_us - serve_us - sim_us;
    const double harness_us =
        (traced_seconds - session_seconds) / traced_frames * us;
    const double overhead = 1.0 - traced_rate / untraced_rate;

    rep.set("scene.host_us_per_frame", scene_us, "us");
    rep.set("scene.batches_per_frame", static_cast<double>(rp.batches) / f,
            "count");
    rep.set("foveation.host_us_per_frame", fov_us, "us");
    rep.set("foveation.resolve_hit_ratio",
            1.0 - static_cast<double>(rp.cacheEntries) /
                      static_cast<double>(rp.resolves),
            "ratio");
    rep.set("core.liwc.host_us_per_frame", liwc_us, "us");
    rep.set("core.uca.host_us_per_frame", uca_us, "us");
    rep.set("core.uca.border_tiles_per_eye",
            rp.borderTiles / static_cast<double>(rp.ucaEyes), "count");
    rep.set("core.uca.interior_tiles_per_eye",
            rp.interiorTiles / static_cast<double>(rp.ucaEyes), "count");
    rep.set("core.uca.busy_ms_per_frame", toMs(rp.ucaBusy / f), "ms");
    rep.set("collab.host_us_per_user_frame", collab_us, "us");
    rep.set("collab.residual_host_us_per_user_frame", residual_us, "us");
    rep.set("serve.host_us_per_request",
            rp.serve / static_cast<double>(rp.requests) * us, "us");
    rep.set("sim.host_ns_per_event",
            rp.sim / static_cast<double>(rp.events) * 1e9, "ns");
    rep.set("residual.host_us_per_frame", harness_us, "us");
    rep.set("trace.overhead_frac", overhead, "ratio");

    printLayerSplit(name,
                    {{"scene (replayed)", scene_us},
                     {"foveation (replayed)", fov_us},
                     {"core.liwc (replayed)", liwc_us},
                     {"core.uca (replayed)", uca_us},
                     {"serve (replayed submitTick)", serve_us},
                     {"sim (replayed event kernel)", sim_us},
                     {"collab.residual (runSession - replays)",
                      residual_us},
                     {"residual (harness)", harness_us}},
                    1e6 / untraced_rate, overhead);
}

/** Serve and collab metrics summed / averaged over sessions. */
void
reportServe(Report &rep, const std::vector<collab::SessionResult> &runs)
{
    serve::FleetCounters c;
    double p50 = 0.0, p99 = 0.0, server = 0.0, egress = 0.0;
    double mtp = 0.0, comp = 0.0, bytes = 0.0;
    for (const collab::SessionResult &r : runs) {
        c.submitted += r.serveCounters.submitted;
        c.admitted += r.serveCounters.admitted;
        c.shed += r.serveCounters.shed;
        c.downgraded += r.serveCounters.downgraded;
        c.batches += r.serveCounters.batches;
        p50 += toMs(r.aggregate.p50QueueWait);
        p99 += toMs(r.aggregate.p99QueueWait);
        server += r.serverUtilisation;
        egress += r.egressUtilisation;
        mtp += toMs(r.aggregate.meanMtp);
        comp += r.aggregate.fpsCompliance;
        bytes += r.aggregate.bytesPerFrame /
                 static_cast<double>(r.aggregate.users);
    }
    const double n = static_cast<double>(runs.size());
    rep.set("mtp_ms_mean", mtp / n, "ms");
    rep.set("fps_compliance", comp / n, "ratio");
    rep.set("downlink_kb_per_frame", bytes / n / 1e3, "KB");
    rep.set("shed_frac",
            static_cast<double>(c.shed) / static_cast<double>(c.submitted),
            "ratio");
    rep.set("serve_wait_ms_p99", p99 / n, "ms");
    rep.set("serve.submitted", static_cast<double>(c.submitted), "count");
    rep.set("serve.admitted", static_cast<double>(c.admitted), "count");
    rep.set("serve.shed", static_cast<double>(c.shed), "count");
    rep.set("serve.downgraded", static_cast<double>(c.downgraded), "count");
    rep.set("serve.batches", static_cast<double>(c.batches), "count");
    rep.set("serve.queue_wait_ms_p50", p50 / n, "ms");
    rep.set("collab.server_utilisation", server / n, "ratio");
    rep.set("collab.egress_utilisation", egress / n, "ratio");
}

/**
 * The shared flow of both fleet workloads: timed runs of every session
 * (one timed unit each, @p frames user-frames each), the correctness
 * checks, and (traced) the layer replays.
 */
Outcome
runFleet(const Options &opt, const std::string &name,
         const std::vector<collab::SessionConfig> &sessions,
         const std::vector<double> &frames, bool open_loop,
         const std::function<void(Report &,
                                  const std::vector<collab::SessionResult> &)>
             &extra)
{
    Outcome out;
    markSetupDone();
    if (opt.setupOnly)
        return out;

    // A session's first run is the reference; every later run must
    // reproduce it bit for bit.
    std::vector<collab::SessionResult> ref(sessions.size());
    std::uint64_t rep_mismatches = 0;
    const auto untracedRep = [&](std::size_t s, std::size_t pass) {
        collab::SessionResult r = collab::runSession(sessions[s]);
        if (pass == 0)
            ref[s] = std::move(r);
        else if (aggregateDigest(r) != aggregateDigest(ref[s]))
            rep_mismatches++;
        return frames[s];
    };
    // Traced runs: one span per runSession call.
    Tracer tracer;
    double session_seconds = 0.0;
    const auto tracedRep = [&](std::size_t s, std::size_t pass) {
        const auto t0 = Clock::now();
        collab::runSession(sessions[s]);
        const auto t1 = Clock::now();
        session_seconds += std::chrono::duration<double>(t1 - t0).count();
        if (pass == 0)
            tracer.add("collab.runSession", t0, t1, 0, 0);
        return frames[s];
    };

    // Replays re-run the layers the first session calls inside, on its
    // own inputs; they need its per-frame FrameStats, so that session
    // is also run once with full telemetry (untimed).
    collab::SessionConfig full_cfg = sessions.front();
    full_cfg.aggregateTelemetry = false;
    collab::SessionResult full;
    std::vector<ReplayUser> users;
    if (opt.trace) {
        full = collab::runSession(full_cfg);
        if (open_loop) {
            const auto &ol = full_cfg.openLoop;
            const auto arrivals =
                core::generateArrivals(ol.arrivals, ol.horizon);
            for (std::size_t u = 0; u < arrivals.size(); u++)
                users.push_back(
                    {ol.arrivals.mix[arrivals[u].profile].benchmark,
                     arrivals[u].seed, arrivals[u].frames,
                     arrivals[u].profile, &full.perUser[u]});
        } else {
            for (std::size_t u = 0; u < full_cfg.users; u++)
                users.push_back({full_cfg.benchmark, full_cfg.seed + u * 101,
                                 full_cfg.numFrames, 0, &full.perUser[u]});
        }
    }
    FleetReplay rp;
    const auto replayRep = [&](std::size_t s, std::size_t pass) {
        if (s != 0)
            return 0.0;
        Tracer *t = pass == 0 ? &tracer : nullptr;
        const std::uint32_t span = t ? t->begin("replay") : 0;
        const std::uint64_t before = rp.frames;
        replaySession(full_cfg, users, !open_loop, rp, t, span);
        if (t)
            t->end(span);
        return static_cast<double>(rp.frames - before);
    };

    const std::vector<TimedUnits> sides =
        opt.trace ? timeUnits(opt.seconds, sessions.size(),
                              {untracedRep, tracedRep, replayRep})
                  : timeUnits(opt.seconds, sessions.size(), {untracedRep});
    const TimedUnits &untraced = sides[0];
    const double peak_rss = peakRssMb();

    // ---- Correctness ------------------------------------------------
    out.checks.check(rep_mismatches == 0,
                     name + " runs of a session are not bit-identical");
    const auto parallel = sim::runParallel(
        sessions.size(),
        [&sessions](std::size_t s) {
            return collab::runSession(sessions[s]);
        },
        opt.workers);
    for (std::size_t s = 0; s < sessions.size(); s++) {
        out.checks.check(aggregateDigest(parallel[s]) ==
                             aggregateDigest(ref[s]),
                         name + " session " + std::to_string(s) +
                             " differs at 1 vs " +
                             std::to_string(opt.workers) + " workers");
        out.checks.check(ref[s].serveCounters.deadlineMisses == 0,
                         name + " session " + std::to_string(s) + ": " +
                             std::to_string(
                                 ref[s].serveCounters.deadlineMisses) +
                             " admitted requests missed their deadline");
    }

    Report &rep = out.report;
    rep.set("user_frames_per_s", untraced.rate(), "frames/s");
    rep.set("peak_rss_mb", peak_rss, "MB");
    reportServe(rep, ref);

    const double admitted =
        rep.find("serve.admitted")->value / rep.find("serve.submitted")->value;
    section(name + " (" + std::to_string(sessions.size()) +
            " sessions, seed " + std::to_string(opt.seed) + ")");
    std::printf("  host: %s\n", untraced.describe().c_str());
    std::printf("  admitted %.1f%% of %.0f requests; every sim metric is "
                "unvalidated against the paper\n",
                100.0 * admitted, rep.find("serve.submitted")->value);
    extra(rep, ref);

    if (!opt.trace)
        return out;

    const TimedUnits &traced = sides[1];
    out.checks.check(full.meanMtp() == ref.front().meanMtp() &&
                         full.serveCounters.shed ==
                             ref.front().serveCounters.shed,
                     name + ": full telemetry disagrees with aggregate");
    double e1 = 0.0, e1_frames = 0.0;
    for (const core::PipelineResult &u : full.perUser)
        for (const core::FrameStats &f : u.frames) {
            e1 += f.e1;
            e1_frames += 1.0;
        }
    rep.set("core.liwc.e1_deg_mean", e1 / e1_frames, "deg");

    reportFleetLayers(name, rep, rp, session_seconds, traced.totalSeconds(),
                      traced.totalFrames(), untraced.wallRate(),
                      traced.wallRate());
    const std::string path =
        opt.traceDir + "/" + name + "-" + std::to_string(opt.seed) + ".json";
    if (tracer.writeChromeJson(path))
        std::printf("  wrote %zu spans to %s\n", tracer.size(),
                    path.c_str());
    else
        std::cerr << "cannot write " << path << "\n";
    return out;
}

}  // namespace

Outcome
runFleetClosed(const Options &opt)
{
    std::vector<collab::SessionConfig> sessions;
    for (std::size_t c = 0; c < kCohorts; c++)
        sessions.push_back(closedConfig(opt.seed, c));
    const std::vector<double> frames(
        kCohorts, static_cast<double>(kCohortUsers * kCohortFrames));
    return runFleet(
        opt, "fleet-closed", sessions, frames, false,
        [](Report &rep, const std::vector<collab::SessionResult> &runs) {
            double worst = runs.front().worstUserFps();
            for (const auto &r : runs)
                worst = std::min(worst, r.worstUserFps());
            rep.set("worst_user_fps", worst, "fps");
        });
}

Outcome
runFleetOpen(const Options &opt)
{
    std::vector<collab::SessionConfig> sessions;
    std::vector<double> frames;
    double arrivals = 0.0;
    for (std::size_t e = 0; e < kEpisodes; e++) {
        sessions.push_back(openConfig(opt.seed, e));
        const auto &ol = sessions.back().openLoop;
        frames.push_back(0.0);
        for (const core::UserArrival &a :
             core::generateArrivals(ol.arrivals, ol.horizon)) {
            frames.back() += a.frames;
            arrivals += 1.0;
        }
    }
    const double offered =
        arrivals / (static_cast<double>(kEpisodes) * kOpenHorizon);
    return runFleet(
        opt, "fleet-open", sessions, frames, true,
        [offered](Report &rep,
                  const std::vector<collab::SessionResult> &runs) {
            double arrived = 0.0, peak = 0.0;
            for (const auto &r : runs) {
                arrived += static_cast<double>(r.openLoop.arrivals);
                peak = std::max(
                    peak, static_cast<double>(r.openLoop.peakActiveUsers));
            }
            rep.set("openloop.offered_users_per_s", offered, "1/s");
            rep.set("openloop.arrivals", arrived, "count");
            rep.set("openloop.peak_active_users", peak, "count");
            std::printf("  offered %.1f users/s over %u shards "
                        "(%.0f arrivals, peak %.0f active); worst_user_fps "
                        "omitted and fps_compliance biased low (first-frame "
                        "interval counts the connect time)\n",
                        offered, kOpenShards, arrived, peak);
        });
}

}  // namespace perfbench
