/**
 * @file
 * Frame-pipeline simulation framework.
 *
 * Every design point in the paper's evaluation (Section 6) is a
 * Pipeline: local-only rendering (Baseline), remote-only rendering,
 * static collaborative rendering, fixed/dynamic collaborative
 * foveated rendering (FFR/DFR), the pure-software Q-VR, and the full
 * Q-VR.  All of them consume the same workload stream and produce
 * per-frame FrameStats, so the bench harnesses can compare designs
 * row-for-row the way the paper's figures do.
 *
 * Execution model: each hardware unit (CPU control, mobile GPU, UCA,
 * remote server, downlink, decoder) is a busy-resource timeline;
 * frames are issued at the 90 Hz vsync cadence when resources allow,
 * or as soon as the serial bottleneck frees otherwise (a VR runtime
 * skips vsync slots rather than queueing unboundedly).
 */

#ifndef QVR_CORE_PIPELINE_HPP
#define QVR_CORE_PIPELINE_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/degradation.hpp"
#include "core/liwc.hpp"
#include "fault/schedule.hpp"
#include "core/uca.hpp"
#include "foveation/layers.hpp"
#include "gpu/postprocess.hpp"
#include "gpu/timing.hpp"
#include "net/channel.hpp"
#include "net/codec.hpp"
#include "net/stream.hpp"
#include "power/energy.hpp"
#include "remote/server.hpp"
#include "scene/benchmarks.hpp"
#include "scene/scene_model.hpp"
#include "scene/workload.hpp"

namespace qvr::core
{

/** Everything a pipeline needs to model one experiment. */
struct PipelineConfig
{
    scene::BenchmarkInfo benchmark;
    foveation::MarModel mar;
    gpu::GpuConfig gpuConfig;
    gpu::GpuCostModel gpuCost;
    gpu::postprocess::PostprocessCosts postCosts;
    remote::ServerConfig serverConfig;
    net::ChannelConfig channelConfig;
    net::CodecConfig codecConfig;
    power::PowerConfig powerConfig;
    LiwcConfig liwcConfig;
    UcaConfig ucaConfig;

    /** DVFS scale of the mobile GPU (1.0 = Table 2's 500 MHz;
     *  0.8 / 0.6 give the 400 / 300 MHz rows of Table 4). */
    double gpuFrequencyScale = 1.0;

    /** Fixed sensor-transport and display latencies counted in the
     *  end-to-end MTP (Section 5: 2 ms + 5 ms). */
    Seconds sensorLatency = 2e-3;
    Seconds displayLatency = 5e-3;

    /** CPU control-logic + local-setup time per frame (CL + LS). */
    Seconds controlLogicTime = 0.8e-3;

    /** Uplink time for pose/control messages to the server. */
    Seconds uplinkLatency = 1.0e-3;

    /**
     * Fault-injection timeline applied to the downlink channel and
     * the remote server (empty = fault-free).  The schedule is purely
     * a function of its construction inputs, so a seeded run replays
     * identically at any thread count.
     */
    fault::FaultSchedule faults;

    /** Bounded retry-with-backoff for lost layer transfers. */
    net::RetryPolicy retryPolicy;

    std::uint64_t seed = 1;

    /** Display geometry derived from the benchmark resolution. */
    foveation::DisplayConfig display() const;

    /** Build the default config for @p benchmark. */
    static PipelineConfig forBenchmark(const scene::BenchmarkInfo &b);
};

/** Per-frame measurements. */
struct FrameStats
{
    FrameIndex index = 0;
    double e1 = 0.0;               ///< fovea radius (deg); 0 if unused
    double e2 = 0.0;

    Seconds tLocalRender = 0.0;    ///< LR service time
    Seconds tRemoteRender = 0.0;   ///< RR service time
    Seconds tNetwork = 0.0;        ///< downlink serialisation
    Seconds tDecode = 0.0;         ///< VD service time
    Seconds tComposition = 0.0;    ///< C (on GPU or UCA)
    Seconds tAtw = 0.0;            ///< ATW (on GPU or UCA)
    Seconds tRemoteBranch = 0.0;   ///< LS->decoded (RR/net/VD overlap)

    Seconds mtpLatency = 0.0;      ///< motion-to-photon, end to end
    Seconds frameInterval = 0.0;   ///< vs. previous frame's display
    Seconds displayTime = 0.0;     ///< absolute sim time of photon-out
    Seconds gpuBusy = 0.0;         ///< mobile-GPU seconds this frame

    Bytes transmittedBytes = 0;
    double renderedResolutionFraction = 1.0;
    std::uint64_t localTriangles = 0;

    power::FrameEnergy energy;
    bool meetsFrameRate = false;   ///< frameInterval <= 1/90 s
    bool meetsMtp = false;         ///< mtpLatency <= 25 ms

    /** True when the frame was reconstructed by UCA from the
     *  previous frame's layers because the remote path missed its
     *  deadline (Section 4.2's dropped-frame fill-in). */
    bool reprojected = false;
    /** Accumulated pose error of the stale periphery, degrees. */
    double reprojectionErrorDeg = 0.0;

    /** Periphery encode-quality scalar applied this frame (1.0 =
     *  nominal bitrate; <1 trades periphery bitrate for latency). */
    double peripheryQuality = 1.0;

    /** DegradationController ladder level applied this frame (0 =
     *  full quality). */
    std::uint32_t degradationLevel = 0;
    /** The collaborative split was collapsed: periphery rendered
     *  on-device at low resolution (link declared down). */
    bool localFallback = false;
    /** Retransmission attempts for this frame's layer transfers. */
    std::uint32_t linkRetries = 0;
    /** Layers whose retry budget ran out (periphery unusable). */
    std::uint32_t lostLayers = 0;
    /** Time this frame's transfers sat stalled behind an outage. */
    Seconds linkStall = 0.0;

    /** Serving-stack telemetry (SessionDesign::Served only).  Queue
     *  wait of this frame's periphery request behind other users. */
    Seconds serveQueueWait = 0.0;
    /** False when the request was shed to the on-device fallback. */
    bool serveAdmitted = true;
    /** Whether the (admitted) render met its completion deadline. */
    bool serveDeadlineMet = true;
};

/** Aggregate fault/recovery accounting over a whole run (computed
 *  over every frame — no warm-up skip, unlike the mean* helpers). */
struct FaultCounters
{
    std::uint64_t reprojectedFrames = 0;
    std::uint64_t localFallbackFrames = 0;
    std::uint64_t degradedFrames = 0;  ///< degradationLevel > 0
    std::uint64_t linkRetries = 0;
    std::uint64_t lostLayers = 0;
    std::uint32_t maxDegradationLevel = 0;
    Seconds totalLinkStall = 0.0;
};

/** Whole-run result with aggregate helpers. */
struct PipelineResult
{
    std::string design;
    std::string benchmark;
    std::vector<FrameStats> frames;

    /** Frames skipped by aggregates (controller warm-up). */
    std::size_t warmupFrames = 30;

    double meanMtp() const;          ///< seconds
    double meanFps() const;          ///< from frame intervals
    double meanE1() const;
    double meanTransmittedBytes() const;
    double meanResolutionFraction() const;
    double meanEnergy() const;       ///< joules per frame
    double meanGpuBusy() const;
    double fpsCompliance() const;    ///< fraction of frames >= 90 Hz

    /** Fault/recovery event totals (all frames, no warm-up skip). */
    FaultCounters faultCounters() const;

  private:
    template <typename F>
    double meanOver(F &&f) const;
};

/** Abstract design point. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineConfig &cfg);
    virtual ~Pipeline() = default;

    virtual std::string name() const = 0;

    /**
     * Simulate one frame and advance the issue clock (vsync-paced,
     * bottleneck-aware).  This is the streaming API QvrSystem wraps;
     * run() is the batch convenience on top of it.
     */
    FrameStats step(const scene::FrameWorkload &frame);

    /** Simulate the whole workload stream. */
    PipelineResult run(const std::vector<scene::FrameWorkload> &frames);

    /** The downlink channel (live environment changes in examples
     *  and failure-injection tests go through here). */
    net::Channel &channel() { return channel_; }

    /** Live DVFS: change the GPU frequency scale for subsequent
     *  frames (driven by power::DvfsGovernor in the ablation). */
    void setFrequencyScale(double scale);

    /** Current DVFS scale. */
    double frequencyScale() const { return cfg_.gpuFrequencyScale; }

  protected:
    /** Per-frame hook implemented by each design. */
    virtual FrameStats simulateFrame(
        const scene::FrameWorkload &frame, Seconds issue_time) = 0;

    /** Issue cadence: earliest of next vsync vs. bottleneck-free. */
    virtual Seconds bottleneckFree() const = 0;

    const PipelineConfig &cfg() const { return cfg_; }

    /** Shared component models (constructed from cfg).  The
     *  geometry carries the pipeline's one partition cache, which
     *  its LIWC resolves through too. */
    foveation::LayerGeometry geometry_;
    gpu::MobileGpuModel gpuModel_;
    remote::RemoteServer server_;
    net::VideoCodec codec_;
    power::EnergyModel energy_;

    /** Shared busy-resource timelines. */
    sim::BusyResource cpu_;
    sim::BusyResource gpu_;
    sim::BusyResource serverBusy_;
    net::Channel channel_;
    net::StreamSession stream_;

    /** Convenience: energy accounting for one frame. */
    power::FrameEnergy frameEnergy(Seconds gpu_busy, Seconds net_active,
                                   Seconds decode_time,
                                   Seconds frame_interval,
                                   bool liwc_on, bool uca_on) const;

    /** Centre-weighted fovea workload fraction (area^(1/gamma)). */
    double foveaWorkloadFraction(double e1, Vec2 gaze) const;

  private:
    PipelineConfig cfg_;
    Seconds issue_ = 0.0;
    Seconds lastDisplay_ = 0.0;
    bool hasLastDisplay_ = false;
};

/** Aggregate comparison helper: mean of a metric ratio vs. baseline,
 *  computed per-benchmark and averaged (how the paper reports). */
double meanSpeedup(const std::vector<PipelineResult> &baseline,
                   const std::vector<PipelineResult> &candidate);

}  // namespace qvr::core

#endif  // QVR_CORE_PIPELINE_HPP
