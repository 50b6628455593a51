#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace qvr::core
{

foveation::DisplayConfig
PipelineConfig::display() const
{
    foveation::DisplayConfig d;
    d.width = benchmark.width;
    d.height = benchmark.height;
    return d;
}

PipelineConfig
PipelineConfig::forBenchmark(const scene::BenchmarkInfo &b)
{
    PipelineConfig cfg;
    cfg.benchmark = b;
    cfg.powerConfig.radio =
        power::RadioProfile::forNetwork(cfg.channelConfig.name);
    return cfg;
}

namespace
{

double
safeInverse(double x)
{
    return x > 0.0 ? 1.0 / x : 0.0;
}

}  // namespace

template <typename F>
double
PipelineResult::meanOver(F &&f) const
{
    if (frames.empty())
        return 0.0;
    const std::size_t start =
        frames.size() > warmupFrames ? warmupFrames : 0;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = start; i < frames.size(); i++) {
        sum += f(frames[i]);
        n++;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
PipelineResult::meanMtp() const
{
    return meanOver([](const FrameStats &s) { return s.mtpLatency; });
}

double
PipelineResult::meanFps() const
{
    const double interval = meanOver(
        [](const FrameStats &s) { return s.frameInterval; });
    return safeInverse(interval);
}

double
PipelineResult::meanE1() const
{
    return meanOver([](const FrameStats &s) { return s.e1; });
}

double
PipelineResult::meanTransmittedBytes() const
{
    return meanOver([](const FrameStats &s) {
        return static_cast<double>(s.transmittedBytes);
    });
}

double
PipelineResult::meanResolutionFraction() const
{
    return meanOver([](const FrameStats &s) {
        return s.renderedResolutionFraction;
    });
}

double
PipelineResult::meanEnergy() const
{
    return meanOver(
        [](const FrameStats &s) { return s.energy.total(); });
}

double
PipelineResult::meanGpuBusy() const
{
    return meanOver([](const FrameStats &s) { return s.gpuBusy; });
}

double
PipelineResult::fpsCompliance() const
{
    return meanOver([](const FrameStats &s) {
        return s.meetsFrameRate ? 1.0 : 0.0;
    });
}

FaultCounters
PipelineResult::faultCounters() const
{
    FaultCounters c;
    for (const FrameStats &s : frames) {
        if (s.reprojected)
            c.reprojectedFrames++;
        if (s.localFallback)
            c.localFallbackFrames++;
        if (s.degradationLevel > 0)
            c.degradedFrames++;
        c.linkRetries += s.linkRetries;
        c.lostLayers += s.lostLayers;
        c.maxDegradationLevel =
            std::max(c.maxDegradationLevel, s.degradationLevel);
        c.totalLinkStall += s.linkStall;
    }
    return c;
}

Pipeline::Pipeline(const PipelineConfig &cfg)
    : geometry_(cfg.display(), cfg.mar),
      gpuModel_(cfg.gpuConfig, cfg.gpuCost),
      server_(cfg.serverConfig),
      codec_(cfg.codecConfig),
      energy_(cfg.powerConfig),
      channel_(cfg.channelConfig, Rng(cfg.seed, 0xc0ffee)),
      stream_(channel_, codec_),
      cfg_(cfg)
{
    stream_.setRetryPolicy(cfg_.retryPolicy);
    if (!cfg_.faults.empty()) {
        channel_.setFaultSchedule(cfg_.faults);
        server_.setFaultSchedule(cfg_.faults);
    }
}

void
Pipeline::setFrequencyScale(double scale)
{
    QVR_REQUIRE(scale > 0.0 && scale <= 2.0,
                "implausible DVFS scale ", scale);
    cfg_.gpuFrequencyScale = scale;
}

FrameStats
Pipeline::step(const scene::FrameWorkload &frame)
{
    FrameStats s = simulateFrame(frame, issue_);
    s.index = frame.index;

    if (hasLastDisplay_) {
        s.frameInterval = s.displayTime - lastDisplay_;
    } else {
        s.frameInterval = s.displayTime;  // first frame
    }
    lastDisplay_ = s.displayTime;
    hasLastDisplay_ = true;

    s.meetsFrameRate =
        s.frameInterval <= vr_requirements::kFrameBudget + 1e-9;
    s.meetsMtp =
        s.mtpLatency <= vr_requirements::kMaxMotionToPhoton + 1e-9;

    // Next frame: issue as soon as the serial bottleneck can accept
    // more work (the paper's FPS is uncapped: Fig. 14(b) plots rates
    // above 90 Hz; a real runtime would vsync-align, which only
    // quantises these numbers).  A small floor avoids zero-length
    // frames for degenerate workloads.
    constexpr Seconds kMinIssueInterval = 0.2e-3;
    issue_ = std::max(issue_ + kMinIssueInterval, bottleneckFree());
    return s;
}

PipelineResult
Pipeline::run(const std::vector<scene::FrameWorkload> &frames)
{
    PipelineResult result;
    result.design = name();
    result.benchmark = cfg_.benchmark.name;
    result.frames.reserve(frames.size());
    for (const auto &frame : frames)
        result.frames.push_back(step(frame));
    return result;
}

power::FrameEnergy
Pipeline::frameEnergy(Seconds gpu_busy, Seconds net_active,
                      Seconds decode_time, Seconds frame_interval,
                      bool liwc_on, bool uca_on) const
{
    power::FrameEnergy e;
    e.gpu = energy_.gpuEnergy(gpu_busy, frame_interval,
                              cfg_.gpuFrequencyScale);
    e.radio = energy_.radioEnergy(net_active, frame_interval);
    e.vpu = energy_.vpuEnergy(decode_time);
    e.accelerators =
        energy_.acceleratorEnergy(frame_interval, liwc_on, uca_on);
    return e;
}

double
Pipeline::foveaWorkloadFraction(double e1, Vec2 gaze) const
{
    const double area = geometry_.foveaAreaFraction(e1, gaze);
    if (area <= 0.0)
        return 0.0;
    return std::pow(area, 1.0 / cfg_.benchmark.centerConcentration);
}

double
meanSpeedup(const std::vector<PipelineResult> &baseline,
            const std::vector<PipelineResult> &candidate)
{
    QVR_REQUIRE(baseline.size() == candidate.size() &&
                    !baseline.empty(),
                "speedup needs matched, non-empty result sets");
    double sum = 0.0;
    for (std::size_t i = 0; i < baseline.size(); i++) {
        const double b = baseline[i].meanMtp();
        const double c = candidate[i].meanMtp();
        QVR_REQUIRE(c > 0.0, "candidate latency must be positive");
        sum += b / c;
    }
    return sum / static_cast<double>(baseline.size());
}

}  // namespace qvr::core
