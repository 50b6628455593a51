#include "foveation/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"

namespace qvr::foveation
{

namespace
{

/**
 * Area of the intersection of a disc (centre (cx, cy), radius r) with
 * the rectangle [0, w] x [0, h], by integrating the vertical extent of
 * the disc across x with Simpson's rule.  Against a 2^18-panel
 * midpoint sum over radii 5-85 deg and five gazes on 1920x2160 and
 * 1280x1440, 512 panels are off by up to 4.3e-5 relative, worst
 * where the screen edges clip the disc (radius 54.5 deg at gaze
 * (0, -30 deg)); test_layers.cpp pins a 5e-5 bound.
 */
double
discRectArea(double cx, double cy, double r, double w, double h)
{
    if (r <= 0.0 || w <= 0.0 || h <= 0.0)
        return 0.0;
    const double x_lo = std::max(0.0, cx - r);
    const double x_hi = std::min(w, cx + r);
    if (x_hi <= x_lo)
        return 0.0;

    auto extent = [cx, cy, r, h](double x) {
        const double dx = x - cx;
        const double disc = r * r - dx * dx;
        if (disc <= 0.0)
            return 0.0;
        const double half = std::sqrt(disc);
        const double top = std::min(h, cy + half);
        const double bot = std::max(0.0, cy - half);
        return std::max(0.0, top - bot);
    };

    constexpr int kPanels = 512;  // even
    const double dx = (x_hi - x_lo) / kPanels;
    double sum = extent(x_lo) + extent(x_hi);
    for (int i = 1; i < kPanels; i++) {
        const double x = x_lo + dx * i;
        sum += extent(x) * ((i % 2) ? 4.0 : 2.0);
    }
    return sum * dx / 3.0;
}

/** pixelCounts' arithmetic on its two disc areas (native pixels). */
LayerPixels
splitLayers(double total, double fovea_native, double inner2_native,
            double s1, double s2)
{
    LayerPixels out;
    out.foveaPixels = fovea_native;
    // Middle layer constraint binds at its inner edge e1; outer at e2.
    out.middleFactor = s1;
    out.outerFactor = s2;

    const double middle_native =
        std::max(0.0, inner2_native - fovea_native);
    const double outer_native = std::max(0.0, total - inner2_native);
    out.middlePixels = middle_native / (s1 * s1);
    out.outerPixels = outer_native / (s2 * s2);
    return out;
}

/** linearResolutionFraction's arithmetic on the same two areas. */
double
linearFraction(double total, double fovea_native, double inner2_native,
               double s1, double s2)
{
    const double middle_native =
        std::max(0.0, inner2_native - fovea_native);
    const double outer_native = std::max(0.0, total - inner2_native);
    return (fovea_native + middle_native / s1 + outer_native / s2) /
           total;
}

}  // namespace

double
discScreenAreaPixels(const DisplayConfig &display, Vec2 gaze,
                     double radius_deg)
{
    const double ppd = display.pixelsPerDegree();
    const double cx = display.width / 2.0 + gaze.x * ppd;
    const double cy = display.height / 2.0 + gaze.y * ppd;
    return discRectArea(cx, cy, radius_deg * ppd,
                        static_cast<double>(display.width),
                        static_cast<double>(display.height));
}

LayerGeometry::LayerGeometry(const DisplayConfig &display,
                             const MarModel &mar)
    : display_(display), mar_(mar)
{
    QVR_REQUIRE(display.width > 0 && display.height > 0,
                "display must have positive resolution");
}

LayerPixels
LayerGeometry::pixelCounts(const LayerPartition &partition) const
{
    QVR_REQUIRE(partition.e1 > 0.0, "e1 must be positive");
    QVR_REQUIRE(partition.e2 >= partition.e1, "e2 must be >= e1");

    return splitLayers(
        static_cast<double>(display_.pixelCount()),
        discScreenAreaPixels(display_, partition.gaze, partition.e1),
        discScreenAreaPixels(display_, partition.gaze, partition.e2),
        mar_.samplingFactor(partition.e1, display_),
        mar_.samplingFactor(partition.e2, display_));
}

double
LayerGeometry::selectOptimalE2(double e1, Vec2 gaze) const
{
    const double e_max = display_.maxEccentricity();
    if (e1 >= e_max)
        return e_max;

    // Grid search at 0.5-degree granularity: the objective is smooth
    // and shallow, so this matches the hardware's coarse tuning knob.
    double best_e2 = e_max;
    double best_cost = std::numeric_limits<double>::infinity();
    for (double e2 = e1 + 0.5; e2 <= e_max + 1e-9; e2 += 0.5) {
        LayerPartition p{e1, std::min(e2, e_max), gaze};
        const LayerPixels px = pixelCounts(p);
        const double cost = px.peripheryPixels();
        if (cost < best_cost) {
            best_cost = cost;
            best_e2 = p.e2;
        }
    }
    return best_e2;
}

double
LayerGeometry::foveaAreaFraction(double e1, Vec2 gaze) const
{
    const double total = static_cast<double>(display_.pixelCount());
    return discScreenAreaPixels(display_, gaze, e1) / total;
}

double
LayerGeometry::renderedResolutionFraction(const LayerPartition &p) const
{
    const LayerPixels px = pixelCounts(p);
    return px.totalRendered() /
           static_cast<double>(display_.pixelCount());
}

double
LayerGeometry::linearResolutionFraction(const LayerPartition &p) const
{
    return linearFraction(static_cast<double>(display_.pixelCount()),
                          discScreenAreaPixels(display_, p.gaze, p.e1),
                          discScreenAreaPixels(display_, p.gaze, p.e2),
                          mar_.samplingFactor(p.e1, display_),
                          mar_.samplingFactor(p.e2, display_));
}

double
LayerGeometry::clampE1(double e1) const
{
    return clamp(e1, kMinE1, display_.maxEccentricity());
}

const LayerGeometry::Resolved &
LayerGeometry::resolve(double e1, Vec2 gaze) const
{
    const double e1q = std::round(e1 * 4.0) / 4.0;
    const auto gx = static_cast<std::int64_t>(std::round(gaze.x));
    const auto gy = static_cast<std::int64_t>(std::round(gaze.y));

    // Pack the quantised key: e1 in quarter degrees (<= 2^12), gaze
    // components offset to non-negative (<= 2^10 each).
    const auto e1_key =
        static_cast<std::uint64_t>(std::llround(e1q * 4.0));
    const auto gx_key = static_cast<std::uint64_t>(gx + 512);
    const auto gy_key = static_cast<std::uint64_t>(gy + 512);
    const std::uint64_t key =
        (e1_key << 24) | (gx_key << 12) | gy_key;

    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    const Vec2 gq{static_cast<double>(gx), static_cast<double>(gy)};
    return cache_.emplace(key, solve(clampE1(e1q), gq)).first->second;
}

LayerGeometry::Resolved
LayerGeometry::solve(double e1, Vec2 gaze) const
{
    const double total = static_cast<double>(display_.pixelCount());
    const double e_max = display_.maxEccentricity();
    const double fovea = discScreenAreaPixels(display_, gaze, e1);
    const double s1 = mar_.samplingFactor(e1, display_);

    // selectOptimalE2's search and pixelCounts' cost, bit for bit,
    // with the fovea disc integrated once instead of per candidate.
    double best_e2 = e_max;
    double best_inner2 = -1.0;  // not integrated yet
    if (e1 < e_max) {
        double best_cost = std::numeric_limits<double>::infinity();
        for (double e2 = e1 + 0.5; e2 <= e_max + 1e-9; e2 += 0.5) {
            const double cand = std::min(e2, e_max);
            const double inner2 = discScreenAreaPixels(display_, gaze, cand);
            const double cost =
                splitLayers(total, fovea, inner2, s1,
                            mar_.samplingFactor(cand, display_))
                    .peripheryPixels();
            if (cost < best_cost) {
                best_cost = cost;
                best_e2 = cand;
                best_inner2 = inner2;
            }
        }
    }
    if (best_inner2 < 0.0)  // no candidate: e2 = e_max
        best_inner2 = discScreenAreaPixels(display_, gaze, best_e2);

    const double s2 = mar_.samplingFactor(best_e2, display_);
    Resolved r;
    r.partition = LayerPartition{e1, best_e2, gaze};
    r.pixels = splitLayers(total, fovea, best_inner2, s1, s2);
    r.linearResolution = linearFraction(total, fovea, best_inner2, s1, s2);
    return r;
}

}  // namespace qvr::foveation
