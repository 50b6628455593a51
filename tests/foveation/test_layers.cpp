/**
 * @file
 * Layer geometry: disc-screen intersection, pixel accounting, Eq. 1
 * e2 selection, resolution metrics, partition caching.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "foveation/layers.hpp"

namespace qvr::foveation
{
namespace
{

LayerGeometry
geo()
{
    return LayerGeometry(DisplayConfig{}, MarModel{});
}

TEST(DiscScreenArea, FullyInsideMatchesCircle)
{
    DisplayConfig d;
    const double r_deg = 5.0;
    const double r_px = r_deg * d.pixelsPerDegree();
    const double area = discScreenAreaPixels(d, Vec2{0.0, 0.0}, r_deg);
    EXPECT_NEAR(area, kPi * r_px * r_px, kPi * r_px * r_px * 1e-4);
}

TEST(DiscScreenArea, HugeRadiusCoversScreen)
{
    DisplayConfig d;
    const double area =
        discScreenAreaPixels(d, Vec2{0.0, 0.0}, 1000.0);
    EXPECT_NEAR(area, static_cast<double>(d.pixelCount()), 1.0);
}

TEST(DiscScreenArea, OffscreenGazeClipsArea)
{
    DisplayConfig d;
    const double centered =
        discScreenAreaPixels(d, Vec2{0.0, 0.0}, 10.0);
    const double cornered =
        discScreenAreaPixels(d, Vec2{58.0, 58.0}, 10.0);
    EXPECT_LT(cornered, centered * 0.5);
}

TEST(DiscScreenArea, ZeroRadiusIsZero)
{
    DisplayConfig d;
    EXPECT_DOUBLE_EQ(discScreenAreaPixels(d, Vec2{}, 0.0), 0.0);
}

/** The disc/screen intersection by a 2^18-panel midpoint sum of the
 *  clipped chord length: a reference independent of the production
 *  Simpson integrator. */
double
denseDiscArea(const DisplayConfig &d, Vec2 gaze, double radius_deg)
{
    const double ppd = d.pixelsPerDegree();
    const double cx = d.width / 2.0 + gaze.x * ppd;
    const double cy = d.height / 2.0 + gaze.y * ppd;
    const double r = radius_deg * ppd;
    const double lo = std::max(0.0, cx - r);
    const double hi = std::min(static_cast<double>(d.width), cx + r);
    if (hi <= lo)
        return 0.0;
    constexpr int kPanels = 1 << 18;
    const double h = (hi - lo) / kPanels;
    double sum = 0.0;
    for (int i = 0; i < kPanels; i++) {
        const double dx = lo + (i + 0.5) * h - cx;
        const double q = r * r - dx * dx;
        if (q <= 0.0)
            continue;
        const double half = std::sqrt(q);
        sum += std::max(0.0, std::min(static_cast<double>(d.height),
                                      cy + half) -
                                 std::max(0.0, cy - half));
    }
    return sum * h;
}

TEST(DiscScreenArea, SimpsonWithinBoundOfDenseIntegral)
{
    // Radii 5-80 deg at five gazes on both display sizes: centred,
    // clipped by one edge, and clipped by two or three edges.
    DisplayConfig small;
    small.width = 1280;
    small.height = 1440;
    const Vec2 gazes[] = {
        {0.0, 0.0}, {0.0, -30.0}, {20.0, 10.0}, {-45.0, 25.0},
        {30.0, -40.0}};
    double worst = 0.0;
    for (const DisplayConfig &d : {DisplayConfig{}, small}) {
        for (const Vec2 gaze : gazes) {
            for (double r = 5.0; r <= 80.0; r += 1.25) {
                const double ref = denseDiscArea(d, gaze, r);
                ASSERT_GT(ref, 0.0);
                const double err =
                    std::abs(discScreenAreaPixels(d, gaze, r) - ref) /
                    ref;
                worst = std::max(worst, err);
                EXPECT_LE(err, 5e-5) << d.width << "x" << d.height
                                     << " r=" << r << " gaze=("
                                     << gaze.x << ", " << gaze.y << ")";
            }
        }
    }
    RecordProperty("worst_relative_error", std::to_string(worst));
}

TEST(LayerGeometry, PixelCountsPartitionTheScreen)
{
    const LayerGeometry g = geo();
    LayerPartition p{10.0, 30.0, Vec2{}};
    const LayerPixels px = g.pixelCounts(p);

    EXPECT_GT(px.foveaPixels, 0.0);
    EXPECT_GT(px.middlePixels, 0.0);
    EXPECT_GT(px.outerPixels, 0.0);

    // Native areas (undo the subsampling) must sum to the screen.
    const double native =
        px.foveaPixels +
        px.middlePixels * px.middleFactor * px.middleFactor +
        px.outerPixels * px.outerFactor * px.outerFactor;
    EXPECT_NEAR(native,
                static_cast<double>(g.display().pixelCount()),
                static_cast<double>(g.display().pixelCount()) * 1e-3);
}

TEST(LayerGeometry, BiggerFoveaMoreLocalFewerRemote)
{
    const LayerGeometry g = geo();
    const LayerPixels small =
        g.pixelCounts(LayerPartition{5.0, 30.0, Vec2{}});
    const LayerPixels big =
        g.pixelCounts(LayerPartition{20.0, 30.0, Vec2{}});
    EXPECT_GT(big.foveaPixels, small.foveaPixels);
    EXPECT_LT(big.peripheryPixels(), small.peripheryPixels());
}

TEST(LayerGeometry, SubsamplingFactorsOrdered)
{
    const LayerGeometry g = geo();
    const LayerPixels px =
        g.pixelCounts(LayerPartition{8.0, 35.0, Vec2{}});
    EXPECT_GE(px.outerFactor, px.middleFactor);
    EXPECT_GE(px.middleFactor, 1.0);
}

TEST(LayerGeometry, OptimalE2BeatsArbitraryChoices)
{
    const LayerGeometry g = geo();
    const double e1 = 8.0;
    const Vec2 gaze{};
    const double e2 = g.selectOptimalE2(e1, gaze);
    ASSERT_GT(e2, e1);

    const double best =
        g.pixelCounts(LayerPartition{e1, e2, gaze}).peripheryPixels();
    for (double cand : {e1 + 1.0, 20.0, 40.0, 60.0}) {
        if (cand <= e1 || cand > g.display().maxEccentricity())
            continue;
        const double cost =
            g.pixelCounts(LayerPartition{e1, cand, gaze})
                .peripheryPixels();
        EXPECT_LE(best, cost * 1.001) << "e2 candidate " << cand;
    }
}

TEST(LayerGeometry, FoveaAreaFractionMonotone)
{
    const LayerGeometry g = geo();
    double prev = 0.0;
    for (double e1 = 5.0; e1 <= 60.0; e1 += 5.0) {
        const double frac = g.foveaAreaFraction(e1, Vec2{});
        EXPECT_GE(frac, prev);
        EXPECT_LE(frac, 1.0 + 1e-9);
        prev = frac;
    }
    EXPECT_GT(prev, 0.5);  // 60-degree fovea covers most of the view
}

TEST(LayerGeometry, ResolutionFractionsBehave)
{
    const LayerGeometry g = geo();
    const LayerPartition small{5.0, 25.0, Vec2{}};
    const LayerPartition large{40.0, 60.0, Vec2{}};

    const double pix_small = g.renderedResolutionFraction(small);
    const double pix_large = g.renderedResolutionFraction(large);
    EXPECT_LT(pix_small, pix_large);  // small fovea = more savings
    EXPECT_GT(pix_small, 0.0);
    EXPECT_LE(pix_large, 1.0 + 1e-9);

    // Linear metric is gentler than the pixel metric.
    EXPECT_GE(g.linearResolutionFraction(small), pix_small);
    EXPECT_LE(g.linearResolutionFraction(small), 1.0);
}

TEST(LayerGeometry, ClampE1Range)
{
    const LayerGeometry g = geo();
    EXPECT_DOUBLE_EQ(g.clampE1(1.0), LayerGeometry::kMinE1);
    EXPECT_DOUBLE_EQ(g.clampE1(12.0), 12.0);
    EXPECT_DOUBLE_EQ(g.clampE1(1000.0),
                     g.display().maxEccentricity());
}

void
expectSameBits(double got, double want, const char *what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << ": " << got << " vs " << want;
}

TEST(LayerGeometry, ResolveIsBitIdenticalToTheReferenceFunctions)
{
    // Every e1 on the quarter-degree grid from below the minimum to
    // past e_max (the last half degree has no e2 candidate), at
    // gazes that round to whole degrees, on both display sizes and
    // with a MAR model whose cap does not bind (so the e2 search is
    // not flat).
    DisplayConfig small;
    small.width = 1280;
    small.height = 1440;
    MarModel uncapped;
    uncapped.maxSamplingFactor = 1e9;
    const Vec2 gazes[] = {{0.4, -0.6}, {12.2, 7.7}, {-31.0, 19.0}};
    std::size_t cases = 0;
    for (const DisplayConfig &d : {DisplayConfig{}, small}) {
        for (const MarModel &mar : {MarModel{}, uncapped}) {
            const LayerGeometry g(d, mar);
            const double e_max = d.maxEccentricity();
            for (const Vec2 gaze : gazes) {
                const Vec2 gq{std::round(gaze.x), std::round(gaze.y)};
                for (double e1 = 4.0; e1 <= e_max + 1.0; e1 += 0.25) {
                    SCOPED_TRACE(testing::Message()
                                 << d.width << "x" << d.height
                                 << " cap=" << mar.maxSamplingFactor
                                 << " e1=" << e1 << " gaze=(" << gaze.x
                                 << ", " << gaze.y << ")");
                    const auto &r = g.resolve(e1, gaze);
                    const double e1c = g.clampE1(e1);
                    const LayerPartition p{
                        e1c, g.selectOptimalE2(e1c, gq), gq};
                    const LayerPixels px = g.pixelCounts(p);
                    expectSameBits(r.partition.e1, p.e1, "e1");
                    expectSameBits(r.partition.e2, p.e2, "e2");
                    expectSameBits(r.partition.gaze.x, gq.x, "gaze.x");
                    expectSameBits(r.partition.gaze.y, gq.y, "gaze.y");
                    expectSameBits(r.pixels.foveaPixels, px.foveaPixels,
                                   "foveaPixels");
                    expectSameBits(r.pixels.middlePixels,
                                   px.middlePixels, "middlePixels");
                    expectSameBits(r.pixels.outerPixels, px.outerPixels,
                                   "outerPixels");
                    expectSameBits(r.pixels.middleFactor,
                                   px.middleFactor, "middleFactor");
                    expectSameBits(r.pixels.outerFactor, px.outerFactor,
                                   "outerFactor");
                    expectSameBits(r.linearResolution,
                                   g.linearResolutionFraction(p),
                                   "linearResolution");
                    cases++;
                }
            }
        }
    }
    EXPECT_GT(cases, 3000u);
}

TEST(PartitionOracle, HandlesShareTheGeometrysCache)
{
    const LayerGeometry g = geo();
    const PartitionOracle a(g);
    const PartitionOracle b(g);
    const auto &first = a.resolve(10.0, Vec2{1.2, 0.4});
    EXPECT_EQ(&first, &b.resolve(10.0, Vec2{1.2, 0.4}));
    EXPECT_EQ(&first, &g.resolve(10.0, Vec2{1.2, 0.4}));
    EXPECT_EQ(g.cacheSize(), 1u);
    EXPECT_EQ(b.cacheSize(), 1u);
}

TEST(PartitionOracle, CachesQuantisedQueries)
{
    const LayerGeometry g = geo();
    PartitionOracle oracle(g);
    const auto &a = oracle.resolve(10.0, Vec2{1.2, 0.4});
    EXPECT_EQ(oracle.cacheSize(), 1u);
    // Sub-quantum changes hit the same entry.
    const auto &b = oracle.resolve(10.1, Vec2{1.4, 0.1});
    EXPECT_EQ(oracle.cacheSize(), 1u);
    EXPECT_EQ(&a, &b);
    // A clearly different query allocates a new entry.
    oracle.resolve(20.0, Vec2{1.2, 0.4});
    EXPECT_EQ(oracle.cacheSize(), 2u);
}

TEST(PartitionOracle, MatchesDirectComputation)
{
    const LayerGeometry g = geo();
    PartitionOracle oracle(g);
    const auto &r = oracle.resolve(12.0, Vec2{3.0, -2.0});
    EXPECT_DOUBLE_EQ(r.partition.e1, 12.0);
    const double direct_e2 =
        g.selectOptimalE2(12.0, Vec2{3.0, -2.0});
    EXPECT_DOUBLE_EQ(r.partition.e2, direct_e2);
}

}  // namespace
}  // namespace qvr::foveation
