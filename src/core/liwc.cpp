#include "core/liwc.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/log.hpp"

namespace qvr::core
{

namespace
{

/** EWMA factor for the predictor's runtime-updated terms. */
constexpr double kPredictorAlpha = 0.25;

/** Fovea workload fraction: screen-area fraction raised to 1/gamma
 *  models centre-concentrated content (gamma >= 1). */
double
foveaWorkload(double area_fraction, double gamma)
{
    if (area_fraction <= 0.0)
        return 0.0;
    return std::pow(area_fraction, 1.0 / gamma);
}

}  // namespace

MotionCodec::MotionCodec(const LiwcConfig &cfg) : cfg_(cfg) {}

std::uint32_t
MotionCodec::encode(const motion::MotionDelta &delta) const
{
    std::uint32_t bits = 0;

    // Bits [9:4] — per-DoF activity flags: yaw, pitch, roll, x, y, z.
    const double rot[3] = {delta.dOrientation.x, delta.dOrientation.y,
                           delta.dOrientation.z};
    for (int i = 0; i < 3; i++) {
        if (std::abs(rot[i]) > cfg_.rotActiveDeg)
            bits |= 1u << (9 - i);
    }
    const double pos[3] = {delta.dPosition.x, delta.dPosition.y,
                           delta.dPosition.z};
    for (int i = 0; i < 3; i++) {
        if (std::abs(pos[i]) > cfg_.posActiveM)
            bits |= 1u << (6 - i);
    }

    // Bits [3:0] — fovea-centre movement: 2-bit magnitude class,
    // 2-bit direction quadrant.
    const double mag = delta.dGaze.norm();
    std::uint32_t mag_class = 0;
    if (mag > cfg_.gazeLargeDeg) {
        mag_class = 3;
    } else if (mag > cfg_.gazeSmallDeg) {
        mag_class = 2;
    } else if (mag > cfg_.gazeSmallDeg * 0.25) {
        mag_class = 1;
    }
    std::uint32_t quadrant = 0;
    if (delta.dGaze.x < 0.0)
        quadrant |= 1;
    if (delta.dGaze.y < 0.0)
        quadrant |= 2;
    bits |= (mag_class << 2) | quadrant;

    QVR_REQUIRE(bits < kMotionEntries, "motion index overflow");
    return bits;
}

LatencyPredictor::LatencyPredictor(double gpu_triangle_throughput,
                                   BitsPerSecond ack_throughput,
                                   double bits_per_pixel)
    : gpuRate_(gpu_triangle_throughput), throughput_(ack_throughput),
      bitsPerPixel_(bits_per_pixel)
{
    QVR_REQUIRE(gpuRate_ > 0.0 && throughput_ > 0.0 &&
                    bitsPerPixel_ > 0.0,
                "predictor needs positive initial rates");
}

Seconds
LatencyPredictor::predictLocal(std::uint64_t setup_triangles,
                               double fovea_workload_fraction) const
{
    return static_cast<double>(setup_triangles) *
           fovea_workload_fraction / gpuRate_;
}

Seconds
LatencyPredictor::predictRemote(double periphery_pixels) const
{
    return periphery_pixels * bitsPerPixel_ / throughput_ +
           remoteOverhead_;
}

void
LatencyPredictor::observeGpuRate(double triangles_per_second)
{
    if (triangles_per_second <= 0.0)
        return;
    gpuRate_ = (1.0 - kPredictorAlpha) * gpuRate_ +
               kPredictorAlpha * triangles_per_second;
}

void
LatencyPredictor::observeThroughput(BitsPerSecond bits_per_second)
{
    if (bits_per_second <= 0.0)
        return;
    throughput_ = (1.0 - kPredictorAlpha) * throughput_ +
                  kPredictorAlpha * bits_per_second;
}

void
LatencyPredictor::observeCompression(double bits_per_pixel)
{
    if (bits_per_pixel <= 0.0)
        return;
    bitsPerPixel_ = (1.0 - kPredictorAlpha) * bitsPerPixel_ +
                    kPredictorAlpha * bits_per_pixel;
}

void
LatencyPredictor::observeRemoteBranch(Seconds measured,
                                      double periphery_pixels)
{
    if (measured <= 0.0 || periphery_pixels <= 0.0)
        return;
    const Seconds payload =
        periphery_pixels * bitsPerPixel_ / throughput_;
    const Seconds overhead = std::max(0.0, measured - payload);
    remoteOverhead_ = (1.0 - kPredictorAlpha) * remoteOverhead_ +
                      kPredictorAlpha * overhead;
}

Liwc::Liwc(const LiwcConfig &cfg,
           const foveation::LayerGeometry &geometry,
           double initial_gpu_rate, BitsPerSecond initial_throughput,
           double initial_bpp, double initial_e1,
           double center_concentration)
    : cfg_(cfg), geometry_(&geometry), codec_(cfg),
      predictor_(initial_gpu_rate, initial_throughput, initial_bpp),
      table_(std::size_t{1} << cfg.tableDepthLog2),
      e1_(geometry.clampE1(initial_e1)),
      centerConcentration_(center_concentration)
{
    QVR_REQUIRE(cfg.deltaRange >= 1 && cfg.deltaRange <= 15,
                "delta range out of the 5-bit tag space");
    QVR_REQUIRE(cfg.tableDepthLog2 >= MotionCodec::kMotionBits + 5,
                "table too shallow for motion x tag indexing");
    // Seed every (motion, tag) slot with the prior linear gradient:
    // growing e1 by d degrees raises the local-minus-remote gap by
    // about priorGradientPerDegree * d (stored in milliseconds).
    for (std::uint32_t m = 0; m < MotionCodec::kMotionEntries; m++) {
        for (int d = -cfg_.deltaRange; d <= cfg_.deltaRange; d++) {
            table_[slot(m, d)] = Half(static_cast<float>(
                toMs(cfg_.priorGradientPerDegree * d)));
        }
    }
}

std::size_t
Liwc::slot(std::uint32_t motion_index, int delta_tag) const
{
    QVR_REQUIRE(std::abs(delta_tag) <= cfg_.deltaRange,
                "delta tag out of range");
    // 32 tag slots per motion entry (5-bit tag space).
    const auto tag =
        static_cast<std::uint32_t>(delta_tag + cfg_.deltaRange);
    return (static_cast<std::size_t>(motion_index) << 5) | tag;
}

LiwcDecision
Liwc::selectEccentricity(const motion::MotionDelta &delta,
                         std::uint64_t setup_triangles, Vec2 gaze)
{
    LiwcDecision d;
    d.motionIndex = codec_.encode(delta);

    // Hardware-level latency estimates at the current eccentricity.
    const double fovea_frac = foveaWorkload(
        geometry_->foveaAreaFraction(e1_, gaze), centerConcentration_);
    d.predictedLocal =
        predictor_.predictLocal(setup_triangles, fovea_frac);

    const auto &resolved = geometry_->resolve(e1_, gaze);
    d.predictedRemote =
        predictor_.predictRemote(resolved.pixels.peripheryPixels());

    // We want the delta whose learned gap-gradient best cancels the
    // predicted gap.
    const double target_ms =
        toMs(d.predictedRemote - d.predictedLocal);

    int best_tag = 0;
    double best_err = std::numeric_limits<double>::infinity();
    for (int tag = -cfg_.deltaRange; tag <= cfg_.deltaRange; tag++) {
        const double g = table_[slot(d.motionIndex, tag)];
        const double err = std::abs(g - target_ms);
        const bool better =
            err < best_err - 1e-12 ||
            (std::abs(err - best_err) <= 1e-12 &&
             std::abs(tag) < std::abs(best_tag));
        if (better) {
            best_err = err;
            best_tag = tag;
        }
    }

    d.deltaTag = best_tag;
    e1_ = geometry_->clampE1(e1_ + best_tag);
    d.e1 = e1_;
    return d;
}

void
Liwc::update(const LiwcDecision &decision, const LiwcFeedback &feedback)
{
    const Seconds diff =
        feedback.measuredLocal - feedback.measuredRemote;
    if (havePrevDiff_) {
        const double delta_latency_ms = toMs(diff - prevMeasuredDiff_);
        const std::size_t s =
            slot(decision.motionIndex, decision.deltaTag);
        const double old_gradient = table_[s];
        table_[s] = Half(static_cast<float>(
            (1.0 - cfg_.alpha) * old_gradient +
            cfg_.alpha * delta_latency_ms));
    }
    prevMeasuredDiff_ = diff;
    havePrevDiff_ = true;

    if (feedback.measuredLocal > 0.0 && feedback.renderedTriangles > 0) {
        predictor_.observeGpuRate(
            static_cast<double>(feedback.renderedTriangles) /
            feedback.measuredLocal);
    }
    predictor_.observeThroughput(feedback.ackThroughput);
    if (feedback.peripheryPixels > 0.0 && feedback.peripheryBytes > 0) {
        predictor_.observeCompression(
            static_cast<double>(feedback.peripheryBytes) * 8.0 /
            feedback.peripheryPixels);
    }
    predictor_.observeRemoteBranch(feedback.measuredRemote,
                                   feedback.peripheryPixels);
}

void
Liwc::overrideE1(double e1)
{
    e1_ = geometry_->clampE1(e1);
}

double
Liwc::gradientAt(std::uint32_t motion_index, int delta_tag) const
{
    return table_[slot(motion_index, delta_tag)];
}

void
Liwc::saveTable(std::ostream &os) const
{
    const auto depth = static_cast<std::uint64_t>(table_.size());
    os.write("LIWCTB1\0", 8);
    os.write(reinterpret_cast<const char *>(&depth), sizeof(depth));
    for (const Half &h : table_) {
        const std::uint16_t bits = h.bits();
        os.write(reinterpret_cast<const char *>(&bits), sizeof(bits));
    }
    if (!os)
        QVR_FATAL("LIWC table write failed");
}

void
Liwc::loadTable(std::istream &is)
{
    char magic[8] = {};
    is.read(magic, 8);
    if (!is || std::string(magic, 7) != "LIWCTB1")
        QVR_FATAL("not a LIWC table image");
    std::uint64_t depth = 0;
    is.read(reinterpret_cast<char *>(&depth), sizeof(depth));
    if (!is || depth != table_.size()) {
        QVR_FATAL("LIWC table depth mismatch: file has ", depth,
                  ", controller expects ", table_.size());
    }
    for (Half &h : table_) {
        std::uint16_t bits = 0;
        is.read(reinterpret_cast<char *>(&bits), sizeof(bits));
        h = Half::fromBits(bits);
    }
    if (!is)
        QVR_FATAL("LIWC table truncated");
}

Bytes
Liwc::tableBytes() const
{
    return table_.size() * sizeof(Half);
}

Seconds
Liwc::selectionLatency() const
{
    // One SRAM probe per delta tag plus a few compare/add cycles.
    const double cycles =
        static_cast<double>(2 * cfg_.deltaRange + 1) + 10.0;
    return cycles / cfg_.frequency;
}

}  // namespace qvr::core
