#include "core/uca.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace qvr::core
{

namespace
{

/** Smoothstep on [lo, hi]. */
double
smooth(double x, double lo, double hi)
{
    if (x <= lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    const double t = (x - lo) / (hi - lo);
    return t * t * (3.0 - 2.0 * t);
}

/** Sample a (possibly subsampled) layer at native-frame coords. */
Rgb
sampleLayer(const Image &layer, double s, double x, double y)
{
    return layer.sampleBilinear(x / s, y / s);
}

void
checkInputs(const UcaFrameInputs &in)
{
    QVR_REQUIRE(in.fovea && in.middle && in.outer,
                "UCA inputs must provide all three layers");
    QVR_REQUIRE(in.sMiddle >= 1.0 && in.sOuter >= 1.0,
                "subsample factors must be >= 1");
    QVR_REQUIRE(in.partition.middleRadius >= in.partition.foveaRadius,
                "e2 must be >= e1");
}

}  // namespace

LayerWeights
layerWeights(const PixelPartition &p, double r)
{
    LayerWeights w;
    // Cross-fades are centred on the layer boundaries, half a band
    // on each side; clamp so the bands cannot overlap.
    const double band =
        std::min(p.blendBand,
                 std::max(1.0, p.middleRadius - p.foveaRadius));
    const double f2m = smooth(r, p.foveaRadius - band / 2.0,
                              p.foveaRadius + band / 2.0);
    const double m2o = smooth(r, p.middleRadius - band / 2.0,
                              p.middleRadius + band / 2.0);
    w.fovea = 1.0 - f2m;
    w.middle = f2m * (1.0 - m2o);
    w.outer = f2m * m2o;
    return w;
}

Image
sequentialCompositeAtw(const UcaFrameInputs &in)
{
    checkInputs(in);
    const std::int32_t w = in.fovea->width();
    const std::int32_t h = in.fovea->height();

    // Pass 1 (Eq. 3-left): composition at native resolution.
    Image composed(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            const double px = x + 0.5;
            const double py = y + 0.5;
            const double r = std::hypot(px - in.partition.centerX,
                                        py - in.partition.centerY);
            const LayerWeights lw = layerWeights(in.partition, r);
            Rgb c;
            if (lw.fovea > 0.0) {
                c = c + in.fovea->sampleBilinear(px, py) *
                            static_cast<float>(lw.fovea);
            }
            if (lw.middle > 0.0) {
                c = c + sampleLayer(*in.middle, in.sMiddle, px, py) *
                            static_cast<float>(lw.middle);
            }
            if (lw.outer > 0.0) {
                c = c + sampleLayer(*in.outer, in.sOuter, px, py) *
                            static_cast<float>(lw.outer);
            }
            composed.at(x, y) = c;
        }
    }

    // Pass 2 (Eq. 3-right): ATW — resample the composed frame at the
    // reprojected coordinates.
    Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            const double sx = x + 0.5 - in.atwShift.x;
            const double sy = y + 0.5 - in.atwShift.y;
            out.at(x, y) = composed.sampleBilinear(sx, sy);
        }
    }
    return out;
}

Image
ucaUnified(const UcaFrameInputs &in)
{
    checkInputs(in);
    const std::int32_t w = in.fovea->width();
    const std::int32_t h = in.fovea->height();

    // One pass (Eq. 4): for each output pixel, reproject once, then
    // sample every contributing layer at that source coordinate —
    // bilinear inside a layer plus the inter-layer blend makes the
    // trilinear filter of Fig. 10.
    Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            const double sx = x + 0.5 - in.atwShift.x;
            const double sy = y + 0.5 - in.atwShift.y;
            const double r = std::hypot(sx - in.partition.centerX,
                                        sy - in.partition.centerY);
            const LayerWeights lw = layerWeights(in.partition, r);
            Rgb c;
            if (lw.fovea > 0.0) {
                c = c + in.fovea->sampleBilinear(sx, sy) *
                            static_cast<float>(lw.fovea);
            }
            if (lw.middle > 0.0) {
                c = c + sampleLayer(*in.middle, in.sMiddle, sx, sy) *
                            static_cast<float>(lw.middle);
            }
            if (lw.outer > 0.0) {
                c = c + sampleLayer(*in.outer, in.sOuter, sx, sy) *
                            static_cast<float>(lw.outer);
            }
            out.at(x, y) = c;
        }
    }
    return out;
}

Image
ucaUnifiedCompressed(const CompressedUcaInputs &in)
{
    QVR_REQUIRE(in.fovea && in.middle && in.outer,
                "UCA inputs must provide all three layers");
    QVR_REQUIRE(in.middleMap.scaleX > 0.0 &&
                    in.middleMap.scaleY > 0.0 &&
                    in.outerMap.scaleX > 0.0 &&
                    in.outerMap.scaleY > 0.0,
                "layer scales must be positive");
    QVR_REQUIRE(in.partition.middleRadius >= in.partition.foveaRadius,
                "e2 must be >= e1");
    QVR_REQUIRE(in.width > 0 && in.height > 0,
                "output frame must be non-empty");

    const foveation::LayerTransform &mm = in.middleMap;
    const foveation::LayerTransform &om = in.outerMap;
    Image out(in.width, in.height);
    for (std::int32_t y = 0; y < in.height; y++) {
        for (std::int32_t x = 0; x < in.width; x++) {
            const double sx = x + 0.5 - in.atwShift.x;
            const double sy = y + 0.5 - in.atwShift.y;
            const double r = std::hypot(sx - in.partition.centerX,
                                        sy - in.partition.centerY);
            const LayerWeights lw = layerWeights(in.partition, r);
            Rgb c;
            if (lw.fovea > 0.0) {
                c = c + in.fovea->sampleBilinear(sx, sy) *
                            static_cast<float>(lw.fovea);
            }
            if (lw.middle > 0.0) {
                c = c + in.middle->sampleBilinear(
                            (sx - mm.originX) / mm.scaleX,
                            (sy - mm.originY) / mm.scaleY) *
                            static_cast<float>(lw.middle);
            }
            if (lw.outer > 0.0) {
                c = c + in.outer->sampleBilinear(
                            (sx - om.originX) / om.scaleX,
                            (sy - om.originY) / om.scaleY) *
                            static_cast<float>(lw.outer);
            }
            out.at(x, y) = c;
        }
    }
    return out;
}

TileClass
classifyTile(const PixelPartition &p, std::int32_t x0, std::int32_t y0,
             std::int32_t tile_size)
{
    // Distance range from the fovea centre to the tile rectangle.
    const double x1 = x0 + tile_size;
    const double y1 = y0 + tile_size;
    const double nx = clamp(p.centerX, static_cast<double>(x0), x1);
    const double ny = clamp(p.centerY, static_cast<double>(y0), y1);
    const double rmin = std::hypot(nx - p.centerX, ny - p.centerY);

    double rmax = 0.0;
    const double xs[2] = {static_cast<double>(x0), x1};
    const double ys[2] = {static_cast<double>(y0), y1};
    for (double cx : xs) {
        for (double cy : ys) {
            rmax = std::max(rmax, std::hypot(cx - p.centerX,
                                             cy - p.centerY));
        }
    }

    const double half_band = p.blendBand / 2.0;
    const bool crosses_e1 = rmin < p.foveaRadius + half_band &&
                            rmax > p.foveaRadius - half_band;
    const bool crosses_e2 = rmin < p.middleRadius + half_band &&
                            rmax > p.middleRadius - half_band;
    if (crosses_e1 || crosses_e2)
        return TileClass::Border;
    if (rmax <= p.foveaRadius)
        return TileClass::FoveaInterior;
    return TileClass::PeripheryInterior;
}

UcaTimingModel::UcaTimingModel(const UcaConfig &cfg)
    : cfg_(cfg), units_(cfg.units)
{
    QVR_REQUIRE(cfg.tileSize > 0, "tile size must be positive");
}

namespace
{

/** Relative margin of the squared-distance tests: far above the
 *  rounding of hypot and of a two-term sum of squares. */
constexpr double kMargin = 1e-9;

/**
 * Where radius r (known as r^2 = @p d2) lies against threshold @p t:
 * -1 below, +1 above, 0 when too close to call with squares (the
 * caller then asks classifyTile).
 */
int
side(double d2, double t)
{
    if (t <= 0.0)
        return t < 0.0 ? 1 : 0;  // r >= 0 > t; r against 0 is a tie
    const double t2 = t * t;
    if (d2 < t2 * (1.0 - kMargin))
        return -1;
    if (d2 > t2 * (1.0 + kMargin))
        return 1;
    return 0;
}

/** Squared distances from a centre coordinate to a tile's span
 *  [lo, hi]: nearest point (classifyTile's clamp) and far edge. */
struct Span2
{
    double near2;
    double far2;
};

Span2
span2(double c, double lo, double hi)
{
    const double n = clamp(c, lo, hi) - c;
    const double a = lo - c;
    const double b = hi - c;
    return Span2{n * n, std::max(a * a, b * b)};
}

}  // namespace

TileCensus
UcaTimingModel::census(std::int32_t width, std::int32_t height,
                       const PixelPartition &p) const
{
    TileCensus out;
    if (width <= 0 || height <= 0)
        return out;
    const auto ts = static_cast<std::int32_t>(cfg_.tileSize);
    const std::int32_t cols = (width + ts - 1) / ts;
    const std::int32_t rows = (height + ts - 1) / ts;

    // classifyTile's thresholds, computed as it computes them.
    const double half_band = p.blendBand / 2.0;
    const double fovea_hi = p.foveaRadius + half_band;
    const double fovea_lo = p.foveaRadius - half_band;
    const double middle_hi = p.middleRadius + half_band;
    const double middle_lo = p.middleRadius - half_band;
    // Beyond `outer` (by the margin) a tile misses both rings and lies
    // outside the fovea: PeripheryInterior.  Within `inner` it misses
    // both rings and lies inside the fovea: FoveaInterior.
    const double outer = std::max({fovea_hi, middle_hi, p.foveaRadius});
    const double inner = std::min({fovea_lo, middle_lo, p.foveaRadius});
    // A non-finite centre has no bulk runs (their column bounds would
    // be NaN); every tile is then classified one by one.
    const bool bulk = std::isfinite(p.centerX) && std::isfinite(p.centerY);

    const auto classify = [&](std::int32_t k, std::int32_t y0,
                              const Span2 &row) {
        const Span2 col = span2(p.centerX, k * ts, k * ts + ts);
        const double rmin2 = col.near2 + row.near2;
        const double rmax2 = col.far2 + row.far2;
        const int a = side(rmin2, fovea_hi);
        const int b = side(rmax2, fovea_lo);
        const int c = side(rmin2, middle_hi);
        const int d = side(rmax2, middle_lo);
        const int e = side(rmax2, p.foveaRadius);
        if (a == 0 || b == 0 || c == 0 || d == 0 || e == 0)
            return classifyTile(p, k * ts, y0, ts);
        if ((a < 0 && b > 0) || (c < 0 && d > 0))
            return TileClass::Border;
        return e < 0 ? TileClass::FoveaInterior
                     : TileClass::PeripheryInterior;
    };
    const auto column = [](double v, std::int32_t lo, std::int32_t hi) {
        return static_cast<std::int32_t>(clamp(v, 1.0 * lo, 1.0 * hi));
    };

    for (std::int32_t j = 0; j < rows; j++) {
        const std::int32_t y0 = j * ts;
        const Span2 row = span2(p.centerY, y0, y0 + ts);

        // Columns [lo, hi) may reach inside the outer ring: a run
        // around the centre, widened by a tile on each side so
        // rounding never drops a near tile.  Columns [ilo, ihi) lie
        // wholly inside the inner ring, narrowed by a tile on each
        // side.  Both bulk runs are counted without classification.
        std::int32_t lo = 0, hi = bulk && outer > 0.0 ? 0 : cols;
        const double w2 = outer * outer * (1.0 + kMargin) - row.near2;
        if (bulk && outer > 0.0 && w2 >= 0.0) {
            const double w = std::sqrt(w2);
            lo = column(std::floor((p.centerX - w) / ts) - 1.0, 0, cols);
            hi = column(std::ceil((p.centerX + w) / ts) + 1.0, lo, cols);
        }
        std::int32_t ilo = lo, ihi = lo;
        const double u2 = inner * inner * (1.0 - kMargin) - row.far2;
        if (bulk && inner > 0.0 && u2 > 0.0) {
            const double u = std::sqrt(u2);
            ilo = column(std::ceil((p.centerX - u) / ts) + 1.0, lo, hi);
            ihi = column(std::floor((p.centerX + u) / ts) - 1.0, ilo, hi);
        }
        out.peripheryInterior +=
            static_cast<std::uint32_t>(cols - (hi - lo));
        out.foveaInterior += static_cast<std::uint32_t>(ihi - ilo);

        for (const auto &[k0, k1] :
             {std::pair{lo, ilo}, std::pair{ihi, hi}}) {
            for (std::int32_t k = k0; k < k1; k++) {
                switch (classify(k, y0, row)) {
                  case TileClass::Border:
                    out.border++;
                    break;
                  case TileClass::FoveaInterior:
                    out.foveaInterior++;
                    break;
                  case TileClass::PeripheryInterior:
                    out.peripheryInterior++;
                    break;
                }
            }
        }
    }
    return out;
}

UcaTimingResult
UcaTimingModel::schedule(const TileCensus &census, Seconds fovea_ready,
                         Seconds periphery_ready)
{
    UcaTimingResult result;
    result.borderTiles = census.border;
    result.interiorTiles = census.foveaInterior + census.peripheryInterior;

    // Two eligibility classes; serve the earlier-eligible class
    // first (the "start ATW on non-overlapping tiles earlier"
    // optimisation of Section 4.2).  Periphery-only tiles do not
    // wait for local rendering.
    struct Bucket
    {
        Seconds ready;
        std::uint32_t tiles = 0;
        std::uint64_t cycles = 0;
    };
    Bucket periphery_only{periphery_ready, census.peripheryInterior,
                          census.peripheryInterior *
                              cfg_.interiorTileCycles};
    Bucket needs_fovea{std::max(fovea_ready, periphery_ready),
                       census.border + census.foveaInterior,
                       census.border * cfg_.borderTileCycles +
                           census.foveaInterior * cfg_.interiorTileCycles};

    Seconds done = 0.0;
    Seconds busy = 0.0;
    Bucket *order[2];
    if (periphery_only.ready <= needs_fovea.ready) {
        order[0] = &periphery_only;
        order[1] = &needs_fovea;
    } else {
        order[0] = &needs_fovea;
        order[1] = &periphery_only;
    }
    for (Bucket *b : order) {
        if (b->tiles == 0)
            continue;
        // Tiles within a bucket split evenly across instances.
        const Seconds service = cyclesToSeconds(
            b->cycles / cfg_.units + cfg_.interiorTileCycles,
            cfg_.frequency);
        for (std::uint32_t u = 0; u < cfg_.units; u++)
            done = std::max(done, units_.serve(b->ready, service));
        busy += cyclesToSeconds(b->cycles, cfg_.frequency);
    }

    result.done = done;
    result.busy = busy;
    return result;
}

UcaTimingResult
UcaTimingModel::processFrame(std::int32_t width, std::int32_t height,
                             const PixelPartition &partition,
                             Seconds fovea_ready,
                             Seconds periphery_ready)
{
    return schedule(census(width, height, partition), fovea_ready,
                    periphery_ready);
}

UcaTimingResult
UcaTimingModel::processFrameDetailed(std::int32_t width,
                                     std::int32_t height,
                                     const PixelPartition &partition,
                                     Seconds fovea_ready,
                                     Seconds periphery_ready)
{
    UcaTimingResult result;
    const auto ts = static_cast<std::int32_t>(cfg_.tileSize);
    const Seconds both_ready =
        std::max(fovea_ready, periphery_ready);

    // Collect per-tile work, then dispatch in eligibility order so
    // an instance never idles past a ready tile.
    struct Tile
    {
        Seconds ready;
        Cycles cost;
    };
    std::vector<Tile> tiles;
    tiles.reserve(static_cast<std::size_t>(
        ((width + ts - 1) / ts) * ((height + ts - 1) / ts)));

    for (std::int32_t y = 0; y < height; y += ts) {
        for (std::int32_t x = 0; x < width; x += ts) {
            const TileClass cls = classifyTile(partition, x, y, ts);
            const Cycles cost = (cls == TileClass::Border)
                                    ? cfg_.borderTileCycles
                                    : cfg_.interiorTileCycles;
            if (cls == TileClass::Border) {
                result.borderTiles++;
            } else {
                result.interiorTiles++;
            }
            const Seconds ready =
                (cls == TileClass::PeripheryInterior)
                    ? periphery_ready
                    : both_ready;
            tiles.push_back(Tile{ready, cost});
        }
    }
    std::stable_sort(tiles.begin(), tiles.end(),
                     [](const Tile &a, const Tile &b) {
                         return a.ready < b.ready;
                     });

    Seconds done = 0.0;
    for (const Tile &t : tiles) {
        const Seconds service =
            cyclesToSeconds(t.cost, cfg_.frequency);
        done = std::max(done, units_.serve(t.ready, service));
        result.busy += service;
    }
    result.done = done;
    return result;
}

}  // namespace qvr::core
