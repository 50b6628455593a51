/**
 * @file
 * Foveated layer partition geometry and pixel accounting.
 *
 * Q-VR reorganises the classic three-layer foveation into a local
 * fovea (radius e1, full resolution) and two remote periphery layers
 * (middle annulus to *e2, outer beyond), each streamed at the reduced
 * resolution the MAR model permits (Section 3.1).  This module turns
 * an (e1, e2, gaze) triple into pixel counts, workload fractions and
 * transmitted-resolution fractions — the quantities every pipeline
 * model and the LIWC latency predictor consume.
 */

#ifndef QVR_FOVEATION_LAYERS_HPP
#define QVR_FOVEATION_LAYERS_HPP

#include <cstdint>
#include <unordered_map>

#include "common/geometry.hpp"
#include "foveation/display.hpp"
#include "foveation/mar.hpp"

namespace qvr::foveation
{

/** A concrete per-frame partition, angles in degrees. */
struct LayerPartition
{
    double e1 = 5.0;   ///< fovea radius (local, full resolution)
    double e2 = 25.0;  ///< middle/outer boundary (*e2 of Eq. 1)
    Vec2 gaze;         ///< fovea centre, degrees from screen centre
};

/** Pixel accounting for one eye under a partition. */
struct LayerPixels
{
    double foveaPixels = 0.0;    ///< full-resolution local pixels
    double middlePixels = 0.0;   ///< post-subsampling middle pixels
    double outerPixels = 0.0;    ///< post-subsampling outer pixels
    double middleFactor = 1.0;   ///< s_1 applied to the middle layer
    double outerFactor = 1.0;    ///< s_2 applied to the outer layer

    double
    peripheryPixels() const
    {
        return middlePixels + outerPixels;
    }

    double
    totalRendered() const
    {
        return foveaPixels + middlePixels + outerPixels;
    }
};

/**
 * Area, in square pixels, of the intersection of the disc of angular
 * radius @p radius_deg centred at gaze offset @p gaze (degrees from
 * screen centre) with the visible screen rectangle.  Uses the
 * small-angle planar approximation (angular distance proportional to
 * on-screen distance), which is the approximation foveated-rendering
 * systems themselves apply.
 */
double discScreenAreaPixels(const DisplayConfig &display, Vec2 gaze,
                            double radius_deg);

/**
 * Geometry/accounting engine binding a display and a MAR model, with
 * the partition cache every per-frame query goes through.
 */
class LayerGeometry
{
  public:
    LayerGeometry(const DisplayConfig &display, const MarModel &mar);

    const DisplayConfig &display() const { return display_; }
    const MarModel &mar() const { return mar_; }

    /** Pixel accounting for @p partition (one eye). */
    LayerPixels pixelCounts(const LayerPartition &partition) const;

    /**
     * Eq. 1: pick *e2 in (e1, max eccentricity] minimising the
     * post-subsampling periphery pixel total P_middle + P_outer.
     */
    double selectOptimalE2(double e1, Vec2 gaze) const;

    /** Fraction of the screen area inside the fovea disc ("%fovea"
     *  of Eq. 2, the local workload fraction). */
    double foveaAreaFraction(double e1, Vec2 gaze) const;

    /**
     * Rendered-resolution fraction: total rendered pixels (all
     * layers, post-subsampling) relative to the full native frame.
     * Figure 13's "resolution reduction" is 1 minus this.
     */
    double renderedResolutionFraction(const LayerPartition &p) const;

    /**
     * Area-weighted *linear* resolution fraction: each layer
     * contributes its native-area share times 1/s_i.  This is the
     * "resolution reduction" metric of Figure 13 (1 minus this
     * value); it is gentler than the pixel-count fraction because
     * sub-sampling by s removes s^2 pixels but only s of linear
     * detail.
     */
    double linearResolutionFraction(const LayerPartition &p) const;

    /** Clamp an eccentricity request into the legal [min, max]. */
    double clampE1(double e1) const;

    /** Smallest legal fovea radius (classic 5-degree fovea). */
    static constexpr double kMinE1 = 5.0;

    /** A resolved partition plus the accounting frames read. */
    struct Resolved
    {
        LayerPartition partition;
        LayerPixels pixels;              ///< pixelCounts(partition)
        double linearResolution = 1.0;   ///< linearResolutionFraction
    };

    /**
     * Quantised, memoised equivalent of clampE1 + selectOptimalE2 +
     * pixelCounts + linearResolutionFraction, bit for bit.  The
     * simulation asks for (e1, gaze) thousands of times per run with
     * heavily repeated, coarsely quantised arguments; hardware would
     * realise the same function as a small lookup structure.
     * Quantisation: e1 to 0.25 deg, gaze to 1 deg — both below the
     * tuning granularity of the system.  A miss integrates the fovea
     * disc once for the whole e2 search.
     *
     * The cache is per-cell mutable state: everything that holds the
     * geometry (a pipeline and its LIWC, every user of a session)
     * shares it, so a geometry must not be shared across threads.
     * References stay valid for the geometry's lifetime.
     */
    const Resolved &resolve(double e1, Vec2 gaze) const;

    std::size_t cacheSize() const { return cache_.size(); }

  private:
    /** resolve's miss path at an already quantised (e1, gaze). */
    Resolved solve(double e1, Vec2 gaze) const;

    DisplayConfig display_;
    MarModel mar_;
    mutable std::unordered_map<std::uint64_t, Resolved> cache_;
};

/**
 * Handle on a geometry's partition cache (LayerGeometry::resolve),
 * for callers that name the cache apart from the geometry.  Every
 * handle on one geometry shares its one cache.
 */
class PartitionOracle
{
  public:
    explicit PartitionOracle(const LayerGeometry &geometry)
        : geometry_(&geometry)
    {
    }

    using Resolved = LayerGeometry::Resolved;

    const Resolved &
    resolve(double e1, Vec2 gaze) const
    {
        return geometry_->resolve(e1, gaze);
    }

    const LayerGeometry &geometry() const { return *geometry_; }

    std::size_t cacheSize() const { return geometry_->cacheSize(); }

  private:
    const LayerGeometry *geometry_;
};

}  // namespace qvr::foveation

#endif  // QVR_FOVEATION_LAYERS_HPP
