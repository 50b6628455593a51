/**
 * @file
 * UCA: layer-weight partition of unity, the Eq.3 = Eq.4 reordering
 * equivalence on real pixels, tile classification, and the timing
 * model's Section-4.3 properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/uca.hpp"

namespace qvr::core
{
namespace
{

/** Procedural test content with energy at several scales. */
Image
makePattern(std::int32_t w, std::int32_t h, double phase)
{
    Image img(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            const double fx = x + 0.5;
            const double fy = y + 0.5;
            img.at(x, y) = Rgb{
                static_cast<float>(
                    0.5 + 0.5 * std::sin(fx * 0.11 + phase)),
                static_cast<float>(
                    0.5 + 0.5 * std::cos(fy * 0.07 + phase)),
                static_cast<float>(
                    0.5 + 0.25 * std::sin((fx + fy) * 0.05))};
        }
    }
    return img;
}

/** Downsample by factor s with box averaging (layer rendering). */
Image
downsample(const Image &src, double s)
{
    const auto w =
        std::max(1, static_cast<std::int32_t>(src.width() / s));
    const auto h =
        std::max(1, static_cast<std::int32_t>(src.height() / s));
    Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            out.at(x, y) = src.sampleBilinear((x + 0.5) * s,
                                              (y + 0.5) * s);
        }
    }
    return out;
}

UcaFrameInputs
makeInputs(const Image &fovea, const Image &middle, const Image &outer,
           double s_mid, double s_out)
{
    UcaFrameInputs in;
    in.fovea = &fovea;
    in.middle = &middle;
    in.outer = &outer;
    in.sMiddle = s_mid;
    in.sOuter = s_out;
    in.partition.centerX = fovea.width() / 2.0;
    in.partition.centerY = fovea.height() / 2.0;
    in.partition.foveaRadius = fovea.width() / 6.0;
    in.partition.middleRadius = fovea.width() / 3.0;
    in.partition.blendBand = 8.0;
    in.atwShift = Vec2{1.7, -2.3};
    return in;
}

TEST(LayerWeights, PartitionOfUnity)
{
    PixelPartition p;
    p.foveaRadius = 50.0;
    p.middleRadius = 120.0;
    p.blendBand = 16.0;
    for (double r = 0.0; r < 300.0; r += 0.7) {
        const LayerWeights w = layerWeights(p, r);
        EXPECT_NEAR(w.fovea + w.middle + w.outer, 1.0, 1e-12) << r;
        EXPECT_GE(w.fovea, 0.0);
        EXPECT_GE(w.middle, 0.0);
        EXPECT_GE(w.outer, 0.0);
    }
}

TEST(LayerWeights, CorrectLayerDominatesPerRegion)
{
    PixelPartition p;
    p.foveaRadius = 50.0;
    p.middleRadius = 120.0;
    p.blendBand = 16.0;
    EXPECT_DOUBLE_EQ(layerWeights(p, 0.0).fovea, 1.0);
    EXPECT_GT(layerWeights(p, 85.0).middle, 0.99);
    EXPECT_GT(layerWeights(p, 200.0).outer, 0.99);
}

TEST(Uca, UnifiedMatchesSequentialReordering)
{
    // The core Section 4.2 claim: ATW-then-compose (one trilinear
    // pass) equals compose-then-ATW (two passes) up to interpolation
    // error at the blend bands.
    const Image native = makePattern(96, 96, 0.0);
    const Image middle = downsample(native, 2.0);
    const Image outer = downsample(native, 3.0);
    const UcaFrameInputs in = makeInputs(native, middle, outer,
                                         2.0, 3.0);

    const Image sequential = sequentialCompositeAtw(in);
    const Image unified = ucaUnified(in);

    EXPECT_LT(sequential.meanAbsDiff(unified), 0.01);
    EXPECT_LT(sequential.maxAbsDiff(unified), 0.12);
}

TEST(Uca, ExactlyEqualWithoutReprojection)
{
    // With zero ATW shift both paths sample identical coordinates:
    // the only difference is composing at integer grid then
    // resampling at the same grid — which is the identity.
    const Image native = makePattern(64, 64, 1.0);
    const Image middle = downsample(native, 2.0);
    const Image outer = downsample(native, 4.0);
    UcaFrameInputs in = makeInputs(native, middle, outer, 2.0, 4.0);
    in.atwShift = Vec2{0.0, 0.0};

    const Image sequential = sequentialCompositeAtw(in);
    const Image unified = ucaUnified(in);
    EXPECT_LT(sequential.maxAbsDiff(unified), 1e-5);
}

TEST(Uca, FoveaRegionPreservedAtFullDetail)
{
    // Inside the fovea (away from bands) the output must equal the
    // reprojected native content even when the periphery is coarse.
    const Image native = makePattern(96, 96, 0.5);
    const Image middle = downsample(native, 4.0);
    const Image outer = downsample(native, 8.0);
    UcaFrameInputs in = makeInputs(native, middle, outer, 4.0, 8.0);

    const Image out = ucaUnified(in);
    const std::int32_t cx = 48;
    const std::int32_t cy = 48;
    for (std::int32_t dy = -4; dy <= 4; dy++) {
        for (std::int32_t dx = -4; dx <= 4; dx++) {
            const Rgb expect = native.sampleBilinear(
                cx + dx + 0.5 - in.atwShift.x,
                cy + dy + 0.5 - in.atwShift.y);
            const Rgb got = out.at(cx + dx, cy + dy);
            EXPECT_NEAR(got.r, expect.r, 1e-5);
            EXPECT_NEAR(got.g, expect.g, 1e-5);
        }
    }
}

TEST(Uca, TileClassification)
{
    PixelPartition p;
    p.centerX = 256.0;
    p.centerY = 256.0;
    p.foveaRadius = 100.0;
    p.middleRadius = 200.0;
    p.blendBand = 16.0;

    // Tile at the centre: fovea interior.
    EXPECT_EQ(classifyTile(p, 240, 240, 32),
              TileClass::FoveaInterior);
    // Tile far away: periphery interior.
    EXPECT_EQ(classifyTile(p, 480, 480, 32),
              TileClass::PeripheryInterior);
    // Tile straddling the e1 ring (r=100 along +x: x ~ 356).
    EXPECT_EQ(classifyTile(p, 340, 240, 32), TileClass::Border);
    // Tile straddling the e2 ring (x ~ 456).
    EXPECT_EQ(classifyTile(p, 440, 240, 32), TileClass::Border);
}

TEST(UcaTiming, TileCountsCoverFrame)
{
    UcaTimingModel uca;
    PixelPartition p;
    p.centerX = 960.0;
    p.centerY = 1080.0;
    p.foveaRadius = 260.0;
    p.middleRadius = 600.0;
    const UcaTimingResult r =
        uca.processFrame(1920, 2160, p, 0.0, 0.0);
    const std::uint32_t tiles =
        ((1920 + 31) / 32) * ((2160 + 31) / 32);
    EXPECT_EQ(r.borderTiles + r.interiorTiles, tiles);
    EXPECT_GT(r.borderTiles, 0u);
}

TEST(UcaTiming, CompletesWithinRealtimeBudget)
{
    // Section 4.3: "with 2 UCAs operating at 500 MHz, we are able to
    // achieve sufficient performance for realtime VR" — a full
    // 1920x2160 frame must process well inside the 11 ms budget.
    UcaTimingModel uca;
    PixelPartition p;
    p.centerX = 960.0;
    p.centerY = 1080.0;
    p.foveaRadius = 260.0;
    p.middleRadius = 600.0;
    const UcaTimingResult r =
        uca.processFrame(1920, 2160, p, 0.0, 0.0);
    EXPECT_LT(r.done, vr_requirements::kFrameBudget / 2.0);
}

TEST(UcaTiming, PeripheryTilesStartBeforeFoveaReady)
{
    // The paper's pipeline optimisation: non-overlapping periphery
    // tiles process as soon as the remote layers decode, before the
    // local fovea render completes.
    UcaTimingModel uca;
    PixelPartition p;
    p.centerX = 960.0;
    p.centerY = 1080.0;
    p.foveaRadius = 200.0;
    p.middleRadius = 500.0;

    const Seconds fovea_ready = 8e-3;
    const Seconds periphery_ready = 2e-3;
    const UcaTimingResult r = uca.processFrame(
        1920, 2160, p, fovea_ready, periphery_ready);

    // Done shortly after fovea_ready: periphery bulk already drained.
    EXPECT_GT(r.done, fovea_ready);
    EXPECT_LT(r.done - fovea_ready, 2e-3);

    // Compare with a unit that must wait for everything.
    UcaTimingModel lazy;
    const UcaTimingResult all_late = lazy.processFrame(
        1920, 2160, p, fovea_ready, fovea_ready);
    EXPECT_GT(all_late.done, r.done);
}

TEST(UcaTiming, DetailedModeAgreesWithBuckets)
{
    // The aggregate bucket scheduler is an approximation of the
    // per-tile dispatch; they must agree on tile counts exactly and
    // on completion time within the bucket-granularity slack.
    PixelPartition p;
    p.centerX = 960.0;
    p.centerY = 1080.0;
    p.foveaRadius = 260.0;
    p.middleRadius = 600.0;

    for (Seconds fovea_ready : {0.0, 4e-3}) {
        for (Seconds periphery_ready : {0.0, 2e-3, 8e-3}) {
            UcaTimingModel bucket_model;
            UcaTimingModel detailed_model;
            const UcaTimingResult bucket = bucket_model.processFrame(
                1920, 2160, p, fovea_ready, periphery_ready);
            const UcaTimingResult detailed =
                detailed_model.processFrameDetailed(
                    1920, 2160, p, fovea_ready, periphery_ready);

            EXPECT_EQ(bucket.borderTiles, detailed.borderTiles);
            EXPECT_EQ(bucket.interiorTiles, detailed.interiorTiles);
            EXPECT_NEAR(bucket.busy, detailed.busy,
                        detailed.busy * 0.01);
            EXPECT_NEAR(bucket.done, detailed.done,
                        std::max(detailed.done * 0.25, 0.3e-3))
                << "fovea=" << fovea_ready
                << " periphery=" << periphery_ready;
        }
    }
}

TEST(UcaTiming, DetailedModeNeverIdlesPastReadyTiles)
{
    // With all data ready at t=0, completion equals busy work spread
    // over the instances (perfect packing, no idle gaps).
    UcaTimingModel uca;
    PixelPartition p;
    p.centerX = 960.0;
    p.centerY = 1080.0;
    p.foveaRadius = 260.0;
    p.middleRadius = 600.0;
    const UcaTimingResult r =
        uca.processFrameDetailed(1920, 2160, p, 0.0, 0.0);
    EXPECT_NEAR(r.done, r.busy / 2.0, r.busy * 0.01);
}

/** classifyTile over every tile of the frame: census's reference. */
TileCensus
perTileCensus(std::int32_t width, std::int32_t height,
              const PixelPartition &p, std::int32_t ts)
{
    TileCensus c;
    for (std::int32_t y = 0; y < height; y += ts) {
        for (std::int32_t x = 0; x < width; x += ts) {
            switch (classifyTile(p, x, y, ts)) {
              case TileClass::Border:
                c.border++;
                break;
              case TileClass::FoveaInterior:
                c.foveaInterior++;
                break;
              case TileClass::PeripheryInterior:
                c.peripheryInterior++;
                break;
            }
        }
    }
    return c;
}

TEST(UcaTiming, CensusMatchesPerTileClassification)
{
    // Seeded sweep: odd canvas sizes, centres on and off the canvas
    // (some on tile edges), zero and non-default blend bands, and
    // ring radii snapped to a tile corner's distance, +- half a band
    // (where classifyTile's predicate ties), besides random ones.
    Rng rng(0xce05, 7);
    const double bands[] = {0.0, 16.0, 5.5, 40.0};
    std::size_t cases = 0, mismatches = 0;
    for (int i = 0; i < 100000; i++) {
        UcaConfig cfg;
        cfg.tileSize = rng.chance(0.25) ? 16 : 32;
        const auto ts = static_cast<std::int32_t>(cfg.tileSize);
        const bool full = i % 500 == 0;
        const auto width = static_cast<std::int32_t>(
            full ? 1920 : rng.uniformInt(1, 300));
        const auto height = static_cast<std::int32_t>(
            full ? 2160 : rng.uniformInt(1, 300));

        PixelPartition p;
        p.blendBand = bands[rng.uniformInt(0, 3)];
        if (rng.chance(0.2)) {
            p.centerX = ts * static_cast<double>(rng.uniformInt(-2, 12));
            p.centerY = ts * static_cast<double>(rng.uniformInt(-2, 12));
        } else {
            p.centerX = rng.uniform(-0.5, 1.5) * width;
            p.centerY = rng.uniform(-0.5, 1.5) * height;
        }
        const double reach = 1.5 * std::max(width, height);
        double radii[2];
        for (double &r : radii) {
            if (rng.chance(0.5)) {
                const double cx = ts * static_cast<double>(
                                           rng.uniformInt(0, width / ts + 1));
                const double cy = ts * static_cast<double>(
                                           rng.uniformInt(0, height / ts + 1));
                const double half_band = p.blendBand / 2.0;
                const double snaps[] = {-half_band, 0.0, half_band};
                r = std::max(0.0, std::hypot(cx - p.centerX,
                                             cy - p.centerY) +
                                      snaps[rng.uniformInt(0, 2)]);
            } else {
                r = rng.uniform(0.0, reach);
            }
        }
        p.foveaRadius = std::min(radii[0], radii[1]);
        p.middleRadius = std::max(radii[0], radii[1]);
        if (i % 1000 == 1) {
            // A non-finite centre coordinate (no bulk runs).
            const double bad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
            (rng.chance(0.5) ? p.centerX : p.centerY) =
                bad[rng.uniformInt(0, 2)];
        }

        const TileCensus want = perTileCensus(width, height, p, ts);
        const TileCensus got = UcaTimingModel(cfg).census(width, height, p);
        cases++;
        if (got.border != want.border ||
            got.foveaInterior != want.foveaInterior ||
            got.peripheryInterior != want.peripheryInterior) {
            if (mismatches++ < 5) {
                ADD_FAILURE()
                    << width << "x" << height << " tile " << ts << " c=("
                    << p.centerX << ", " << p.centerY << ") r=("
                    << p.foveaRadius << ", " << p.middleRadius
                    << ") band " << p.blendBand << ": census "
                    << got.border << "/" << got.foveaInterior << "/"
                    << got.peripheryInterior << ", per tile "
                    << want.border << "/" << want.foveaInterior << "/"
                    << want.peripheryInterior;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases << " partitions";
}

TEST(UcaTiming, EyesShareOneCensus)
{
    // processFrame is schedule(census): two eyes scheduled from one
    // census match two processFrame calls, reservations included.
    PixelPartition p;
    p.centerX = 900.5;
    p.centerY = 1111.25;
    p.foveaRadius = 300.0;
    p.middleRadius = 352.0;
    UcaTimingModel split;
    UcaTimingModel whole;
    const TileCensus tiles = split.census(1920, 2160, p);
    for (int eye = 0; eye < 2; eye++) {
        const UcaTimingResult a = split.schedule(tiles, 3e-3, 1e-3);
        const UcaTimingResult b =
            whole.processFrame(1920, 2160, p, 3e-3, 1e-3);
        EXPECT_EQ(a.done, b.done);
        EXPECT_EQ(a.busy, b.busy);
        EXPECT_EQ(a.borderTiles, b.borderTiles);
        EXPECT_EQ(a.interiorTiles, b.interiorTiles);
    }
}

TEST(UcaTiming, BorderTilesCostMore)
{
    UcaConfig cfg;
    EXPECT_GT(cfg.borderTileCycles, cfg.interiorTileCycles);
    EXPECT_EQ(cfg.borderTileCycles, 532u);  // paper Section 4.3
    EXPECT_EQ(cfg.units, 2u);
    EXPECT_DOUBLE_EQ(cfg.areaMm2, 1.6);
    EXPECT_DOUBLE_EQ(cfg.powerW, 0.094);
}

}  // namespace
}  // namespace qvr::core
