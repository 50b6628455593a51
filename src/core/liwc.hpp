/**
 * @file
 * Lightweight Interaction-Aware Workload Controller (LIWC),
 * Section 4.1.
 *
 * LIWC picks each frame's fovea eccentricity e1 so local and remote
 * rendering latencies balance.  It is a tiny Q-learning-style engine:
 *
 *  - a *motion codec* quantises the frame-to-frame user-motion delta
 *    into a 10-bit index (6 bits of 6-DoF HMD change + 4 bits of
 *    fovea-centre movement);
 *  - an SRAM *mapping table* (2^15 fp16 entries = 64 KB) stores, per
 *    (motion index, eccentricity delta-tag in -5..+5 deg), the learned
 *    *latency-gradient offset*: the expected change of the local-minus-
 *    remote latency gap when that delta is applied under that motion;
 *  - a *latency predictor* (Eq. 2) estimates the current gap directly
 *    from hardware-level intermediate data: the triangle count seen at
 *    render setup and the ACK-derived network throughput —
 *        T_local  = #triangles x %fovea / P(GPU_m)
 *        T_remote = DataSize(M+O) / Throughput
 *  - a *runtime updater* folds each frame's measured latencies back
 *    into the table with the reward rule
 *        gradient = (1 - alpha) x gradient' + alpha x delta_latency
 *    and refreshes the predictor's GPU-performance and throughput
 *    terms.
 *
 * Selection is one table probe: LIWC picks the delta-tag whose stored
 * gradient is closest to the gap it wants to cancel.
 */

#ifndef QVR_CORE_LIWC_HPP
#define QVR_CORE_LIWC_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/fp16.hpp"
#include "common/types.hpp"
#include "foveation/layers.hpp"
#include "motion/pose.hpp"

namespace qvr::core
{

/** LIWC tunables; defaults follow Section 4.1/4.3. */
struct LiwcConfig
{
    /** Reward parameter alpha of the update rule. */
    double alpha = 0.30;
    /** Delta tags span [-deltaRange, +deltaRange] degrees. */
    int deltaRange = 5;
    /** Prior: expected gap change per degree of e1 (seconds);
     *  seeds the table before any learning. */
    double priorGradientPerDegree = 0.8e-3;

    /** Motion-codec quantisation thresholds. */
    double rotActiveDeg = 0.15;    ///< per-frame rotation "active"
    double posActiveM = 0.002;     ///< per-frame translation "active"
    double gazeSmallDeg = 0.3;     ///< small fovea move
    double gazeLargeDeg = 1.5;     ///< large fovea move

    /** log2 of the SRAM table depth (paper: 15 -> 64 KB of fp16). */
    std::uint32_t tableDepthLog2 = 15;

    /** Controller clock (for the overhead accounting only). */
    Hertz frequency = fromMHz(500.0);
};

/**
 * Quantises motion deltas into the table's 10-bit motion index:
 * bits [9:4] flag per-DoF activity (yaw, pitch, roll, x, y, z),
 * bits [3:0] encode fovea-centre movement (2-bit magnitude class,
 * 2-bit direction quadrant).
 */
class MotionCodec
{
  public:
    explicit MotionCodec(const LiwcConfig &cfg);

    static constexpr std::uint32_t kMotionBits = 10;
    static constexpr std::uint32_t kMotionEntries = 1u << kMotionBits;

    std::uint32_t encode(const motion::MotionDelta &delta) const;

  private:
    LiwcConfig cfg_;
};

/** Eq. 2 latency predictor fed by hardware-level counters. */
class LatencyPredictor
{
  public:
    /**
     * @param gpu_triangle_throughput initial P(GPU_m), triangles/s
     * @param ack_throughput initial network throughput, bits/s
     * @param bits_per_pixel initial compressed-periphery bpp estimate
     */
    LatencyPredictor(double gpu_triangle_throughput,
                     BitsPerSecond ack_throughput,
                     double bits_per_pixel);

    /** T_local = triangles x fovea_fraction / P(GPU_m). */
    Seconds predictLocal(std::uint64_t setup_triangles,
                         double fovea_workload_fraction) const;

    /** T_remote = periphery_pixels x bpp / throughput + overhead,
     *  where the fixed-overhead term (uplink, server render/encode,
     *  propagation, decode) is learned online from ACK timing. */
    Seconds predictRemote(double periphery_pixels) const;

    /** Runtime-updater hooks (EWMA refresh). */
    void observeGpuRate(double triangles_per_second);
    void observeThroughput(BitsPerSecond bits_per_second);
    void observeCompression(double bits_per_pixel);
    /** Feed one measured remote-branch latency; the non-payload part
     *  is folded into the learned overhead term. */
    void observeRemoteBranch(Seconds measured, double periphery_pixels);

    double gpuRate() const { return gpuRate_; }
    BitsPerSecond throughput() const { return throughput_; }
    double bitsPerPixel() const { return bitsPerPixel_; }
    Seconds remoteOverhead() const { return remoteOverhead_; }

  private:
    double gpuRate_;
    BitsPerSecond throughput_;
    double bitsPerPixel_;
    Seconds remoteOverhead_ = 0.0;
};

/** LIWC's per-frame output. */
struct LiwcDecision
{
    double e1 = 5.0;              ///< chosen fovea radius (deg)
    int deltaTag = 0;             ///< applied delta (deg)
    std::uint32_t motionIndex = 0;
    Seconds predictedLocal = 0.0;
    Seconds predictedRemote = 0.0;
};

/** Measured outcome of a frame, fed back by the runtime updater. */
struct LiwcFeedback
{
    Seconds measuredLocal = 0.0;
    Seconds measuredRemote = 0.0;
    std::uint64_t renderedTriangles = 0;   ///< local (fovea) triangles
    double peripheryPixels = 0.0;
    Bytes peripheryBytes = 0;
    BitsPerSecond ackThroughput = 0.0;
};

/** The controller. */
class Liwc
{
  public:
    Liwc(const LiwcConfig &cfg,
         const foveation::LayerGeometry &geometry,
         double initial_gpu_rate, BitsPerSecond initial_throughput,
         double initial_bpp, double initial_e1 = 5.0,
         double center_concentration = 1.25);

    /**
     * Select the eccentricity for the upcoming frame.
     * @param delta      motion delta vs. the previous frame
     * @param setup_triangles triangle count observed at render setup
     * @param gaze       fovea centre (degrees from screen centre)
     */
    LiwcDecision selectEccentricity(const motion::MotionDelta &delta,
                                    std::uint64_t setup_triangles,
                                    Vec2 gaze);

    /** Runtime updater: fold the frame's measurements back in. */
    void update(const LiwcDecision &decision,
                const LiwcFeedback &feedback);

    /** Externally pin the eccentricity state (degradation clamp):
     *  the next selection steps from this value instead of the
     *  controller's own — without it the internal setpoint keeps
     *  integrating against a frozen predictor during a fault and
     *  recovery starts from a ballooned e1. */
    void overrideE1(double e1);

    double currentE1() const { return e1_; }
    const LatencyPredictor &predictor() const { return predictor_; }

    /** Raw table read (tests/diagnostics). */
    double gradientAt(std::uint32_t motion_index, int delta_tag) const;

    /**
     * Persist / restore the learned SRAM table (raw fp16 words).
     * A warm-started controller skips the cold-start imbalance of
     * Fig. 14's first frames; the format is the table's exact bit
     * image prefixed by its depth, so mismatched geometry is
     * rejected (fatal) rather than silently misread.
     */
    void saveTable(std::ostream &os) const;
    void loadTable(std::istream &is);

    /** Section 4.3 accounting. */
    Bytes tableBytes() const;
    double areaMm2() const { return 0.66; }
    double maxPowerW() const { return 0.025; }
    /** Selection latency: one SRAM probe per tag (hidden in the
     *  pipeline; reported for the overhead bench). */
    Seconds selectionLatency() const;

  private:
    std::size_t slot(std::uint32_t motion_index, int delta_tag) const;

    LiwcConfig cfg_;
    /** Also the partition cache selections resolve through. */
    const foveation::LayerGeometry *geometry_;
    MotionCodec codec_;
    LatencyPredictor predictor_;
    std::vector<Half> table_;
    double e1_;
    double centerConcentration_;
    bool havePrevDiff_ = false;
    Seconds prevMeasuredDiff_ = 0.0;
};

}  // namespace qvr::core

#endif  // QVR_CORE_LIWC_HPP
