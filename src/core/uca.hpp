/**
 * @file
 * Unified Composition and ATW unit (UCA), Section 4.2.
 *
 * The baseline pipeline runs foveated composition (average the layer
 * contributions, Eq. 3-left) and then ATW (lens-distortion remap +
 * bilinear filter, Eq. 3-right) as two GPU kernels.  Both are linear
 * filters, so they can be reordered and fused into one trilinear pass
 * that samples the inputs once (Eq. 4).  Q-VR implements that pass in
 * a dedicated SoC unit (4 MULs + 8 SIMD4 FPUs per instance, 2
 * instances at 500 MHz; 532 cycles per 32x32 border tile), which
 * frees the GPU cores and lets non-overlapping tiles start before
 * rendering fully completes.
 *
 * This module carries BOTH models:
 *  - a functional model operating on real pixel buffers, used to
 *    verify the Eq. 3 = Eq. 4 reordering numerically;
 *  - a timing model used by the pipeline simulations.
 */

#ifndef QVR_CORE_UCA_HPP
#define QVR_CORE_UCA_HPP

#include <cstdint>

#include "common/types.hpp"
#include "core/framebuffer.hpp"
#include "foveation/compressed_layout.hpp"
#include "sim/resource.hpp"

namespace qvr::core
{

/** Pixel-space description of the layer partition for one eye. */
struct PixelPartition
{
    double centerX = 0.0;      ///< fovea centre, pixels
    double centerY = 0.0;
    double foveaRadius = 0.0;  ///< e1 in pixels
    double middleRadius = 0.0; ///< e2 in pixels
    double blendBand = 16.0;   ///< cross-fade band width, pixels
};

/** Inputs to one composition+ATW pass. */
struct UcaFrameInputs
{
    const Image *fovea = nullptr;   ///< native resolution
    const Image *middle = nullptr;  ///< subsampled by sMiddle
    const Image *outer = nullptr;   ///< subsampled by sOuter
    double sMiddle = 1.0;           ///< per-dimension subsample factor
    double sOuter = 1.0;
    PixelPartition partition;
    /** ATW reprojection, pixels (small-rotation approximation of the
     *  lens-distortion + pose-update remap). */
    Vec2 atwShift;
};

/**
 * Inputs to a composition+ATW pass over ENCODER-ALIGNED compressed
 * layers (foveation/compressed_layout.hpp): the periphery buffers
 * cover only the native-space window their LayerTransform maps, at
 * their own per-axis scales, instead of being full-frame at a
 * uniform factor.  The legacy UcaFrameInputs is the special case
 * map = LayerTransform::uniform(s).
 */
struct CompressedUcaInputs
{
    const Image *fovea = nullptr;   ///< native resolution, full frame
    const Image *middle = nullptr;  ///< cropped + subsampled buffer
    const Image *outer = nullptr;   ///< full frame, subsampled buffer
    foveation::LayerTransform middleMap;
    foveation::LayerTransform outerMap;
    PixelPartition partition;
    Vec2 atwShift;
    std::int32_t width = 0;   ///< native output dimensions
    std::int32_t height = 0;
};

/** Per-eccentricity blend weights of the three layers (sum to 1). */
struct LayerWeights
{
    double fovea = 0.0;
    double middle = 0.0;
    double outer = 0.0;
};

/** Smooth cross-fade weights at radius @p r from the fovea centre. */
LayerWeights layerWeights(const PixelPartition &p, double r);

/**
 * Reference path (Eq. 3): foveated composition at native resolution,
 * THEN ATW as a separate bilinear resample.  Two passes, two
 * samplings — what the GPU kernels do.
 *
 * This and ucaUnified() are the deliberately simple scalar loops the
 * equivalence tests are written against.  Production rendering goes
 * through the tiled, thread-parallel PixelEngine
 * (core/pixel_engine.hpp), which is bit-identical to these by
 * contract and an order of magnitude faster.
 */
Image sequentialCompositeAtw(const UcaFrameInputs &in);

/**
 * Unified path (Eq. 4): one pass over output pixels; each samples
 * every contributing layer once at the reprojected coordinate
 * (bilinear within a layer + inter-layer blend = trilinear).
 * Scalar reference — see PixelEngine for the fast tiled version.
 */
Image ucaUnified(const UcaFrameInputs &in);

/**
 * Scalar reference of the unified pass over compressed layers: the
 * same per-pixel arithmetic as ucaUnified() with each periphery
 * sample taken at ((sx - origin) / scale) in its cropped buffer.
 * Oracle for PixelEngine::ucaUnifiedCompressed.
 */
Image ucaUnifiedCompressed(const CompressedUcaInputs &in);

/** Tile classes the UCA scheduler distinguishes. */
enum class TileClass
{
    FoveaInterior,      ///< fovea data only (bilinear)
    PeripheryInterior,  ///< periphery data only (bilinear)
    Border,             ///< spans a layer boundary (trilinear)
};

/** Classify the @p tile_size tile whose top-left pixel is (x0, y0). */
TileClass classifyTile(const PixelPartition &p, std::int32_t x0,
                       std::int32_t y0, std::int32_t tile_size);

/** UCA hardware parameters (Section 4.2/4.3). */
struct UcaConfig
{
    std::uint32_t units = 2;
    Hertz frequency = fromMHz(500.0);
    std::uint32_t tileSize = 32;
    /** Cycles per 32x32 border tile (trilinear), per Section 4.3. */
    Cycles borderTileCycles = 532;
    /** Cycles per interior tile (bilinear only). */
    Cycles interiorTileCycles = 300;
    /** Area/power per instance from McPAT (Section 4.3). */
    double areaMm2 = 1.6;
    double powerW = 0.094;
};

/** Tile counts of one eye's frame, by the class classifyTile gives
 *  each tile. */
struct TileCensus
{
    std::uint32_t border = 0;
    std::uint32_t foveaInterior = 0;
    std::uint32_t peripheryInterior = 0;
};

/** Outcome of scheduling one eye's tiles onto the UCA instances. */
struct UcaTimingResult
{
    Seconds done = 0.0;          ///< last tile completed
    Seconds busy = 0.0;          ///< summed tile service time
    std::uint32_t borderTiles = 0;
    std::uint32_t interiorTiles = 0;
};

/**
 * Timing model: tiles become eligible when their source layers are
 * ready (periphery tiles at @p periphery_ready, fovea and border
 * tiles additionally need @p fovea_ready) and are served by the UCA
 * instances in eligibility order.
 */
class UcaTimingModel
{
  public:
    explicit UcaTimingModel(const UcaConfig &cfg = UcaConfig{});

    const UcaConfig &config() const { return cfg_; }

    /**
     * Count the frame's tiles by class, exactly as classifyTile
     * would one by one.  Both eyes of a frame share one census, so a
     * frame computes it once: per tile row, the tiles wholly beyond
     * the outer blend ring and those wholly inside the inner one are
     * counted in bulk; the rest are decided on squared distances when
     * the margin is clear and by classifyTile otherwise.
     */
    TileCensus census(std::int32_t width, std::int32_t height,
                      const PixelPartition &partition) const;

    /** Schedule one eye's tiles, counted by @p census, onto the
     *  instances; eyes scheduled in turn see each other's
     *  reservations. */
    UcaTimingResult schedule(const TileCensus &census,
                             Seconds fovea_ready,
                             Seconds periphery_ready);

    /** One eye: schedule(census(width, height, partition), ...). */
    UcaTimingResult processFrame(std::int32_t width, std::int32_t height,
                                 const PixelPartition &partition,
                                 Seconds fovea_ready,
                                 Seconds periphery_ready);

    /**
     * High-fidelity variant: every tile is dispatched individually
     * to the instances in eligibility order instead of as two
     * aggregate buckets.  ~100x more serve operations; used by the
     * cross-check tests and available when per-tile accuracy
     * matters.  Same contract as processFrame.
     */
    UcaTimingResult processFrameDetailed(
        std::int32_t width, std::int32_t height,
        const PixelPartition &partition, Seconds fovea_ready,
        Seconds periphery_ready);

  private:
    UcaConfig cfg_;
    sim::MultiServerResource units_;
};

}  // namespace qvr::core

#endif  // QVR_CORE_UCA_HPP
