/**
 * @file
 * Pipeline framework: issue pacing, frame accounting, aggregates,
 * and per-design sanity of the baseline pipelines.
 */

#include <gtest/gtest.h>

#include "core/pipeline_foveated.hpp"
#include "core/pipelines_baseline.hpp"
#include "core/qvr_system.hpp"

namespace qvr::core
{
namespace
{

std::vector<scene::FrameWorkload>
workload(const std::string &bench, std::size_t n, std::uint64_t seed = 1)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    spec.numFrames = n;
    spec.seed = seed;
    return generateExperimentWorkload(spec);
}

PipelineConfig
config(const std::string &bench)
{
    ExperimentSpec spec;
    spec.benchmark = bench;
    return spec.toConfig();
}

/** A Q-VR pipeline that shows its geometry (its partition cache). */
class GeometryProbe : public FoveatedPipeline
{
  public:
    using FoveatedPipeline::FoveatedPipeline;

    const foveation::LayerGeometry &geometry() const { return geometry_; }
};

TEST(Pipeline, LiwcResolvesIntoThePipelinesOneCache)
{
    // The first frame resolves twice: LIWC's probe at its starting
    // e1, then the partition at the e1 it picks.  Both land in the
    // pipeline's one cache.
    const FoveatedPolicy policy = FoveatedPolicy::qvr();
    GeometryProbe qvr(config("Doom3-H"), policy);
    const scene::FrameWorkload frame = workload("Doom3-H", 1).front();
    const FrameStats s = qvr.step(frame);
    ASSERT_NE(s.e1, policy.initialE1) << "LIWC kept its e1";

    const foveation::LayerGeometry &g = qvr.geometry();
    const Vec2 gaze{frame.motionSeen.gaze.x, frame.motionSeen.gaze.y};
    EXPECT_EQ(g.cacheSize(), 2u);
    g.resolve(policy.initialE1, gaze);  // LIWC's probe: a hit
    g.resolve(s.e1, gaze);              // the frame's partition: a hit
    EXPECT_EQ(g.cacheSize(), 2u);
}

TEST(Pipeline, FramesAdvanceMonotonically)
{
    LocalPipeline p(config("Doom3-L"));
    const auto frames = workload("Doom3-L", 40);
    const PipelineResult r = p.run(frames);
    ASSERT_EQ(r.frames.size(), 40u);
    for (std::size_t i = 1; i < r.frames.size(); i++) {
        EXPECT_GT(r.frames[i].displayTime,
                  r.frames[i - 1].displayTime);
        EXPECT_GT(r.frames[i].frameInterval, 0.0);
    }
}

TEST(Pipeline, VsyncPacedWhenFast)
{
    // Doom3-L local rendering is near budget; intervals must never
    // drop below the 90 Hz vsync period.
    LocalPipeline p(config("Doom3-L"));
    const PipelineResult r = p.run(workload("Doom3-L", 60));
    for (std::size_t i = 1; i < r.frames.size(); i++) {
        EXPECT_GE(r.frames[i].frameInterval,
                  vr_requirements::kFrameBudget - 1e-9);
    }
}

TEST(Pipeline, MtpIncludesSensorAndDisplay)
{
    LocalPipeline p(config("Doom3-L"));
    const PipelineResult r = p.run(workload("Doom3-L", 5));
    const PipelineConfig cfg = config("Doom3-L");
    for (const auto &f : r.frames) {
        EXPECT_GE(f.mtpLatency, cfg.sensorLatency +
                                    cfg.displayLatency +
                                    f.tLocalRender);
    }
}

TEST(LocalPipeline, HeavySceneMissesBudget)
{
    LocalPipeline p(config("GRID"));
    const PipelineResult r = p.run(workload("GRID", 60));
    EXPECT_LT(r.meanFps(), 45.0);
    EXPECT_GT(r.meanMtp(), vr_requirements::kMaxMotionToPhoton);
    EXPECT_EQ(r.meanTransmittedBytes(), 0.0);  // fully local
}

TEST(LocalPipeline, LightSceneNearBudget)
{
    LocalPipeline p(config("Doom3-L"));
    const PipelineResult r = p.run(workload("Doom3-L", 60));
    EXPECT_GT(r.meanFps(), 45.0);
}

TEST(RemotePipeline, NetworkDominatesLatency)
{
    // Fig. 3: transmission is ~63% of remote-only end-to-end latency.
    RemotePipeline p(config("GRID"));
    const PipelineResult r = p.run(workload("GRID", 60));
    double net = 0.0, mtp = 0.0;
    for (const auto &f : r.frames) {
        net += f.tNetwork;
        mtp += f.mtpLatency;
    }
    EXPECT_GT(net / mtp, 0.45);
    EXPECT_LT(net / mtp, 0.85);
    // Remote-only misses the 25 ms bound under Wi-Fi.
    EXPECT_GT(r.meanMtp(), vr_requirements::kMaxMotionToPhoton);
}

TEST(RemotePipeline, TransfersFullFrames)
{
    RemotePipeline p(config("GRID"));
    const PipelineResult r = p.run(workload("GRID", 30));
    // ~570 KB per stereo frame (Table 1 ballpark).
    EXPECT_GT(r.meanTransmittedBytes(), 300.0 * 1024);
    EXPECT_LT(r.meanTransmittedBytes(), 1200.0 * 1024);
}

TEST(StaticPipeline, PrefetchHidesLatencyOnHits)
{
    StaticCollabConfig collab;
    collab.mispredictThresholdDeg = 1e9;  // always hit
    StaticPipeline p(config("GRID"), collab);
    const PipelineResult r = p.run(workload("GRID", 60));
    EXPECT_LT(p.mispredictRate(), 0.2);  // only cold-start misses
    // With hits, the remote branch is mostly hidden.
    double hidden = 0.0;
    for (std::size_t i = 10; i < r.frames.size(); i++)
        hidden += r.frames[i].tRemoteBranch;
    EXPECT_LT(hidden / 50.0, 15e-3);
}

TEST(StaticPipeline, MispredictionExposesFetch)
{
    StaticCollabConfig never;
    never.mispredictThresholdDeg = -1.0;  // always miss
    StaticPipeline p(config("GRID"), never);
    const PipelineResult r = p.run(workload("GRID", 40));
    EXPECT_GT(p.mispredictRate(), 0.99);
    EXPECT_GT(r.meanMtp(), 30e-3);
}

TEST(StaticPipeline, RealisticMissRateIsSubstantial)
{
    // The paper: predicting random user motion >30 ms ahead loses
    // accuracy — misses must be common but not universal.
    StaticPipeline p(config("GRID"));
    p.run(workload("GRID", 200));
    EXPECT_GT(p.mispredictRate(), 0.1);
    EXPECT_LT(p.mispredictRate(), 0.95);
}

TEST(StaticPipeline, DoesNotReduceTransmittedData)
{
    // Fig. 13: static transfers as much as remote-only (plus depth).
    StaticPipeline st(config("GRID"));
    RemotePipeline rm(config("GRID"));
    const auto frames = workload("GRID", 40);
    const double st_bytes = st.run(frames).meanTransmittedBytes();
    const double rm_bytes = rm.run(frames).meanTransmittedBytes();
    EXPECT_GT(st_bytes, rm_bytes * 0.9);
}

TEST(PipelineResult, AggregatesSkipWarmup)
{
    PipelineResult r;
    r.warmupFrames = 2;
    for (int i = 0; i < 4; i++) {
        FrameStats s;
        s.mtpLatency = (i < 2) ? 100.0 : 10.0;
        s.frameInterval = 0.01;
        r.frames.push_back(s);
    }
    EXPECT_DOUBLE_EQ(r.meanMtp(), 10.0);
}

TEST(MeanSpeedup, AveragesPerBenchmarkRatios)
{
    PipelineResult base1, base2, cand1, cand2;
    FrameStats s;
    s.frameInterval = 0.01;
    s.mtpLatency = 40e-3;
    base1.frames.assign(50, s);
    base2.frames.assign(50, s);
    s.mtpLatency = 10e-3;
    cand1.frames.assign(50, s);
    s.mtpLatency = 20e-3;
    cand2.frames.assign(50, s);
    const double sp = meanSpeedup({base1, base2}, {cand1, cand2});
    EXPECT_NEAR(sp, (4.0 + 2.0) / 2.0, 1e-9);
}

}  // namespace
}  // namespace qvr::core
