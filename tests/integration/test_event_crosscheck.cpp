/**
 * @file
 * Cross-validation of the analytic busy-resource pipeline against an
 * independent discrete-event simulation of the same stage graph.
 *
 * The pipelines compute completion times with the closed-form
 * "completion = max(arrival, next-free) + service" recurrence; this
 * test rebuilds the local-rendering design as explicit events on
 * sim::EventQueue and requires the two formulations to agree
 * exactly.  Any future change that breaks the queueing semantics of
 * either layer fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "collab/session.hpp"
#include "core/pipelines_baseline.hpp"
#include "core/qvr_system.hpp"
#include "sim/event_queue.hpp"

namespace qvr::collab
{

/** Stable text for a SessionConfig test parameter: without it
 *  GoogleTest prints the struct's bytes, heap pointers included, into
 *  every CTest name. */
void
PrintTo(const SessionConfig &c, std::ostream *os)
{
    *os << c.benchmark << " users=" << c.users
        << " frames=" << c.numFrames << " seed=" << c.seed
        << " chiplets=" << c.totalChiplets << "/" << c.chipletsPerRequest
        << " shards=" << c.serving.shards
        << " scheduler=" << static_cast<int>(c.serving.scheduler.policy)
        << " admission=" << c.serving.admission.enabled
        << " batching=" << c.serving.batching.enabled
        << " balancer=" << static_cast<int>(c.serving.balancer.policy);
}

}  // namespace qvr::collab

namespace qvr::core
{
namespace
{

/**
 * Event-driven re-implementation of LocalPipeline's stage graph:
 * CPU (CL) -> GPU (render) -> GPU (ATW) -> display, with the same
 * vsync-free issue rule.
 */
std::vector<Seconds>
eventDrivenLocal(const PipelineConfig &cfg,
                 const std::vector<scene::FrameWorkload> &frames)
{
    sim::EventQueue queue;
    gpu::MobileGpuModel gpu_model(cfg.gpuConfig, cfg.gpuCost);

    std::vector<Seconds> display_times(frames.size(), 0.0);
    Seconds cpu_free = 0.0;
    Seconds gpu_free = 0.0;
    Seconds issue = 0.0;

    for (std::size_t i = 0; i < frames.size(); i++) {
        gpu::RenderJob job;
        job.triangles = frames[i].totalTriangles() * 2;
        job.shadedPixels =
            static_cast<double>(cfg.benchmark.pixelsPerEye()) * 2.0;
        job.batches = cfg.benchmark.numBatches * 2;
        job.shadingCost = cfg.benchmark.shadingCost;
        job.frequencyScale = cfg.gpuFrequencyScale;
        const Seconds t_render = gpu_model.renderSeconds(job);
        const Seconds t_atw =
            gpu::postprocess::atwTime(gpu_model, job.shadedPixels,
                                      cfg.postCosts) /
            cfg.gpuFrequencyScale;

        // CL on the CPU.
        const Seconds cpu_start = std::max(issue, cpu_free);
        const Seconds cpu_done = cpu_start + cfg.controlLogicTime;
        cpu_free = cpu_done;

        // Render then ATW on the GPU, as events.
        const Seconds render_start = std::max(cpu_done, gpu_free);
        const Seconds render_done = render_start + t_render;
        const Seconds atw_done = render_done + t_atw;
        gpu_free = atw_done;

        queue.schedule(atw_done, [&display_times, i, atw_done, &cfg] {
            display_times[i] = atw_done + cfg.displayLatency;
        });

        issue = std::max(issue + 0.2e-3, gpu_free);
    }
    queue.run();
    return display_times;
}

TEST(EventCrosscheck, LocalPipelineMatchesEventSimulation)
{
    ExperimentSpec spec;
    spec.benchmark = "HL2-H";
    spec.numFrames = 60;
    const auto workload = generateExperimentWorkload(spec);
    const PipelineConfig cfg = spec.toConfig();

    LocalPipeline analytic(cfg);
    const PipelineResult a = analytic.run(workload);
    const std::vector<Seconds> b = eventDrivenLocal(cfg, workload);

    ASSERT_EQ(a.frames.size(), b.size());
    for (std::size_t i = 0; i < b.size(); i++) {
        EXPECT_NEAR(a.frames[i].displayTime, b[i], 1e-12)
            << "frame " << i;
    }
}

TEST(EventCrosscheck, HoldsAcrossBenchmarks)
{
    for (const char *bench : {"Doom3-L", "GRID"}) {
        ExperimentSpec spec;
        spec.benchmark = bench;
        spec.numFrames = 25;
        const auto workload = generateExperimentWorkload(spec);
        const PipelineConfig cfg = spec.toConfig();

        LocalPipeline analytic(cfg);
        const PipelineResult a = analytic.run(workload);
        const std::vector<Seconds> b =
            eventDrivenLocal(cfg, workload);
        for (std::size_t i = 0; i < b.size(); i++) {
            EXPECT_NEAR(a.frames[i].displayTime, b[i], 1e-12)
                << bench << " frame " << i;
        }
    }
}

/**
 * The second oracle pair: the event-driven served-session engine
 * (collab/event_session.cpp) against the lockstep round loop it
 * replaced for large sweeps.  The contract is bit-exactness — every
 * FrameStats field, every SLO percentile, every fleet counter — not
 * approximate agreement, because the event engine is sold as "the
 * same simulation, differently orchestrated".
 */
class ServedSessionCrosscheck
    : public ::testing::TestWithParam<collab::SessionConfig>
{
};

void
expectResultsIdentical(const collab::SessionResult &a,
                       const collab::SessionResult &b)
{
    ASSERT_EQ(a.perUser.size(), b.perUser.size());
    for (std::size_t u = 0; u < a.perUser.size(); u++) {
        const auto &fa = a.perUser[u].frames;
        const auto &fb = b.perUser[u].frames;
        ASSERT_EQ(fa.size(), fb.size()) << "user " << u;
        for (std::size_t i = 0; i < fa.size(); i++) {
            const core::FrameStats &x = fa[i];
            const core::FrameStats &y = fb[i];
            ASSERT_EQ(x.index, y.index) << "user " << u;
            // EXPECT_EQ on doubles = bitwise-exact agreement.
            ASSERT_EQ(x.displayTime, y.displayTime)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.mtpLatency, y.mtpLatency)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.frameInterval, y.frameInterval)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.e1, y.e1) << "user " << u << " frame " << i;
            ASSERT_EQ(x.e2, y.e2) << "user " << u << " frame " << i;
            ASSERT_EQ(x.tLocalRender, y.tLocalRender)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.tRemoteRender, y.tRemoteRender)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.tRemoteBranch, y.tRemoteBranch)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.tComposition, y.tComposition)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.tNetwork, y.tNetwork)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.transmittedBytes, y.transmittedBytes)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.localTriangles, y.localTriangles)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.gpuBusy, y.gpuBusy)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.renderedResolutionFraction,
                      y.renderedResolutionFraction)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.meetsFrameRate, y.meetsFrameRate)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.meetsMtp, y.meetsMtp)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.serveQueueWait, y.serveQueueWait)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.serveAdmitted, y.serveAdmitted)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.serveDeadlineMet, y.serveDeadlineMet)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.degradationLevel, y.degradationLevel)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.localFallback, y.localFallback)
                << "user " << u << " frame " << i;
            ASSERT_EQ(x.peripheryQuality, y.peripheryQuality)
                << "user " << u << " frame " << i;
        }
    }

    // Per-user SLO telemetry, field for field.
    ASSERT_EQ(a.perUserSlo.size(), b.perUserSlo.size());
    for (std::size_t u = 0; u < a.perUserSlo.size(); u++) {
        ASSERT_EQ(a.perUserSlo[u].p50QueueWait,
                  b.perUserSlo[u].p50QueueWait)
            << "user " << u;
        ASSERT_EQ(a.perUserSlo[u].p99QueueWait,
                  b.perUserSlo[u].p99QueueWait)
            << "user " << u;
        ASSERT_EQ(a.perUserSlo[u].deadlineMissRate,
                  b.perUserSlo[u].deadlineMissRate)
            << "user " << u;
        ASSERT_EQ(a.perUserSlo[u].shedFrames,
                  b.perUserSlo[u].shedFrames)
            << "user " << u;
        ASSERT_EQ(a.perUserSlo[u].downgradedFrames,
                  b.perUserSlo[u].downgradedFrames)
            << "user " << u;
    }

    // Fleet counters and shared-infrastructure utilisations.
    ASSERT_EQ(a.serveCounters.submitted, b.serveCounters.submitted);
    ASSERT_EQ(a.serveCounters.admitted, b.serveCounters.admitted);
    ASSERT_EQ(a.serveCounters.shed, b.serveCounters.shed);
    ASSERT_EQ(a.serveCounters.downgraded, b.serveCounters.downgraded);
    ASSERT_EQ(a.serveCounters.deadlineMisses,
              b.serveCounters.deadlineMisses);
    ASSERT_EQ(a.serveCounters.batches, b.serveCounters.batches);
    ASSERT_EQ(a.serveCounters.batchedRequests,
              b.serveCounters.batchedRequests);
    ASSERT_EQ(a.egressUtilisation, b.egressUtilisation);
    ASSERT_EQ(a.serverUtilisation, b.serverUtilisation);
    ASSERT_EQ(a.shardUtilisation, b.shardUtilisation);
}

/** Nearest-rank percentile, recomputed independently of the
 *  session's telemetry fold. */
Seconds
nearestRankOf(std::vector<Seconds> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

/**
 * An independent check of the session's telemetry fold: every
 * summary accessor against PipelineResult's own helpers over the
 * stored per-user frames, and every SLO summary (per user, and the
 * fleet-wide pooled percentiles) against nearest-rank numbers
 * recomputed from those frames.  Bitwise: the fold sums in frame and
 * user order, as the helpers do.
 */
void
expectSummariesMatchFrames(const collab::SessionResult &r)
{
    ASSERT_FALSE(r.perUser.empty());
    double fps = 0.0, mtp = 0.0, comp = 0.0, bytes = 0.0;
    double worst = std::numeric_limits<double>::infinity();
    for (const PipelineResult &u : r.perUser) {
        fps += u.meanFps();
        worst = std::min(worst, u.meanFps());
        mtp += u.meanMtp();
        comp += u.fpsCompliance();
        bytes += u.meanTransmittedBytes();
    }
    const double n = static_cast<double>(r.perUser.size());
    EXPECT_FALSE(r.aggregate.enabled);
    EXPECT_EQ(r.meanFps(), fps / n);
    EXPECT_EQ(r.worstUserFps(), worst);
    EXPECT_EQ(r.meanMtp(), mtp / n);
    EXPECT_EQ(r.fpsCompliance(), comp / n);
    EXPECT_EQ(r.aggregateBytesPerFrame(), bytes);

    const bool served = r.config.design == collab::SessionDesign::Served;
    ASSERT_EQ(r.perUserSlo.size(), served ? r.perUser.size() : 0u);
    std::vector<Seconds> pooled;
    for (std::size_t u = 0; u < r.perUser.size(); u++) {
        const auto &frames = r.perUser[u].frames;
        std::vector<Seconds> waits;
        std::uint64_t shed = 0, downgraded = 0, late = 0;
        for (const FrameStats &f : frames) {
            if (!f.serveAdmitted) {
                shed++;
                continue;
            }
            waits.push_back(f.serveQueueWait);
            downgraded += f.degradationLevel > 0 ? 1 : 0;
            late += f.serveDeadlineMet ? 0 : 1;
        }
        pooled.insert(pooled.end(), waits.begin(), waits.end());
        if (!served)
            continue;
        const collab::UserSloStats &slo = r.perUserSlo[u];
        EXPECT_EQ(slo.shedFrames, shed) << "user " << u;
        EXPECT_EQ(slo.downgradedFrames, downgraded) << "user " << u;
        EXPECT_EQ(slo.deadlineMissRate,
                  static_cast<double>(late) /
                      static_cast<double>(frames.size()))
            << "user " << u;
        EXPECT_EQ(slo.p50QueueWait, nearestRankOf(waits, 0.50))
            << "user " << u;
        EXPECT_EQ(slo.p99QueueWait, nearestRankOf(waits, 0.99))
            << "user " << u;
    }
    EXPECT_EQ(r.aggregate.p50QueueWait, nearestRankOf(pooled, 0.50));
    EXPECT_EQ(r.aggregate.p99QueueWait, nearestRankOf(pooled, 0.99));
}

TEST_P(ServedSessionCrosscheck, EventEngineMatchesLockstepOracle)
{
    collab::SessionConfig cfg = GetParam();
    cfg.engine = collab::SessionEngine::Lockstep;
    const collab::SessionResult lockstep = collab::runSession(cfg);
    cfg.engine = collab::SessionEngine::Event;
    const collab::SessionResult event = collab::runSession(cfg);
    expectResultsIdentical(lockstep, event);
}

// Aggregate telemetry must equal the numbers the full-telemetry
// accessors compute — bitwise, because the accumulators replicate
// meanOver's warm-up skip and summation order.  Both runs summarise
// through the same fold, so the full run is also checked against
// the stored frames themselves.
TEST_P(ServedSessionCrosscheck, AggregateTelemetryMatchesFull)
{
    collab::SessionConfig cfg = GetParam();
    cfg.engine = collab::SessionEngine::Lockstep;
    const collab::SessionResult full = collab::runSession(cfg);
    expectSummariesMatchFrames(full);
    cfg.engine = collab::SessionEngine::Event;
    cfg.aggregateTelemetry = true;
    const collab::SessionResult agg = collab::runSession(cfg);

    ASSERT_TRUE(agg.aggregate.enabled);
    EXPECT_TRUE(agg.perUser.empty());
    ASSERT_EQ(agg.aggregate.users, cfg.users);
    EXPECT_EQ(agg.meanFps(), full.meanFps());
    EXPECT_EQ(agg.worstUserFps(), full.worstUserFps());
    EXPECT_EQ(agg.meanMtp(), full.meanMtp());
    EXPECT_EQ(agg.fpsCompliance(), full.fpsCompliance());
    EXPECT_EQ(agg.aggregateBytesPerFrame(),
              full.aggregateBytesPerFrame());
    EXPECT_EQ(agg.serverUtilisation, full.serverUtilisation);
    EXPECT_EQ(agg.egressUtilisation, full.egressUtilisation);
    EXPECT_EQ(agg.serveCounters.shed, full.serveCounters.shed);
    EXPECT_EQ(agg.serveCounters.admitted,
              full.serveCounters.admitted);

    // Shed/downgraded totals equal the per-user SLO sums.
    std::uint64_t shed = 0, downgraded = 0;
    for (const auto &slo : full.perUserSlo) {
        shed += slo.shedFrames;
        downgraded += slo.downgradedFrames;
    }
    EXPECT_EQ(agg.aggregate.shedFrames, shed);
    EXPECT_EQ(agg.aggregate.downgradedFrames, downgraded);
    EXPECT_EQ(agg.aggregate.p50QueueWait, full.aggregate.p50QueueWait);
    EXPECT_EQ(agg.aggregate.p99QueueWait, full.aggregate.p99QueueWait);
}

// The same independent check on the two designs that never see the
// serving stack: Qvr frames take the call-order chiplet pool, Static
// frames prefetch the whole background.
TEST(SessionTelemetryFold, QvrAndStaticSummariesMatchFrames)
{
    for (const auto design :
         {collab::SessionDesign::Qvr, collab::SessionDesign::Static}) {
        collab::SessionConfig cfg;
        cfg.design = design;
        cfg.users = 3;
        cfg.numFrames = 50;
        expectSummariesMatchFrames(collab::runSession(cfg));
    }
}

std::vector<collab::SessionConfig>
crosscheckConfigs()
{
    std::vector<collab::SessionConfig> cfgs;

    const auto base = [] {
        collab::SessionConfig cfg;
        cfg.design = collab::SessionDesign::Served;
        cfg.benchmark = "HL2-H";
        cfg.totalChiplets = 4;
        cfg.chipletsPerRequest = 2;
        cfg.serverEgress = fromMbps(2000.0);
        cfg.numFrames = 50;
        return cfg;
    };

    // EDF + admission, the bench's headline cell.
    collab::SessionConfig c1 = base();
    c1.users = 3;
    c1.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    c1.serving.admission.enabled = true;
    cfgs.push_back(c1);

    // FIFO, saturated (6 users on a 2-slot pool): sheds, backlog,
    // deadline misses all exercised.
    collab::SessionConfig c2 = base();
    c2.users = 6;
    c2.numFrames = 40;
    cfgs.push_back(c2);

    // Batching + 2-shard JSQ fleet.
    collab::SessionConfig c3 = base();
    c3.users = 5;
    c3.numFrames = 40;
    c3.totalChiplets = 8;
    c3.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    c3.serving.admission.enabled = true;
    c3.serving.batching.enabled = true;
    c3.serving.shards = 2;
    cfgs.push_back(c3);

    // Hash-affinity balancer, different benchmark and seed.
    collab::SessionConfig c4 = base();
    c4.users = 4;
    c4.numFrames = 40;
    c4.benchmark = "Doom3-L";
    c4.seed = 7;
    c4.serving.shards = 2;
    c4.serving.balancer.policy = serve::BalancerPolicy::HashUser;
    c4.serving.scheduler.policy = serve::SchedulerPolicy::Sjf;
    cfgs.push_back(c4);

    // More users than libstdc++'s insertion-sort threshold (16):
    // pins the round-0 issueOrder tie handling, where std::sort is
    // only identity on all-equal keys below that size.
    collab::SessionConfig c5 = base();
    c5.users = 20;
    c5.numFrames = 25;
    c5.serving.scheduler.policy = serve::SchedulerPolicy::Edf;
    c5.serving.admission.enabled = true;
    cfgs.push_back(c5);

    return cfgs;
}

INSTANTIATE_TEST_SUITE_P(
    Sessions, ServedSessionCrosscheck,
    ::testing::ValuesIn(crosscheckConfigs()),
    [](const ::testing::TestParamInfo<collab::SessionConfig> &pi) {
        const auto &c = pi.param;
        return c.benchmark.substr(0, c.benchmark.find('-')) + "u" +
               std::to_string(c.users) + "s" +
               std::to_string(c.serving.shards) + "i" +
               std::to_string(pi.index);
    });

}  // namespace
}  // namespace qvr::core
