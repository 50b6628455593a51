/**
 * @file
 * pixel-compose workload: back-to-back frames through core::PixelEngine
 * on one worker.  Partitions come from the single-user Q-VR trace of
 * the seed (gaze centre, e1/e2 as pixel radii, MAR subsample factors);
 * each is composed as ucaUnified over full-frame layers and as
 * ucaUnifiedCompressed over the encoder-aligned compressed layout, at
 * the scene's resolution.  No timing-model work is timed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <tuple>

#include "core/pixel_engine.hpp"
#include "foveation/compressed_layout.hpp"
#include "single_user.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

/** Partitions taken from each scene's Q-VR trace. */
constexpr std::size_t kPartitionsPerScene = 8;

/** ATW reprojection is bounded to a few tiles of head motion. */
constexpr double kMaxAtwShiftPx = 32.0;

/** Smooth, cheap synthetic content (gradients plus a soft grid). */
core::Image
makePattern(std::int32_t w, std::int32_t h)
{
    core::Image img(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        core::Rgb *row = img.rowSpan(y);
        const float fy = static_cast<float>(y) / static_cast<float>(h);
        for (std::int32_t x = 0; x < w; x++) {
            const float fx = static_cast<float>(x) / static_cast<float>(w);
            const float grid = ((x >> 4) + (y >> 4)) & 1 ? 0.25f : 0.0f;
            row[x] = core::Rgb{fx, fy, 0.5f * (fx + fy) + grid};
        }
    }
    return img;
}

/** A layer buffer: native content seen through @p map. */
core::Image
layerBuffer(const core::Image &native, std::int32_t w, std::int32_t h,
            const foveation::LayerTransform &map)
{
    core::Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        core::Rgb *row = out.rowSpan(y);
        for (std::int32_t x = 0; x < w; x++)
            row[x] = native.sampleBilinear(
                map.originX + (x + 0.5) * map.scaleX,
                map.originY + (y + 0.5) * map.scaleY);
    }
    return out;
}

/** Everything one composed user-frame needs (images are shared). */
struct Partition
{
    std::string scene;
    core::UcaFrameInputs unified;
    core::CompressedUcaInputs compressed;
    std::int64_t pixels = 0;  ///< output pixels per composition
};

/** Layer buffers are shared between partitions whose dimensions
 *  round up to the same multiple of this (the extra texels are never
 *  sampled), which keeps the input set to a few hundred MB. */
constexpr std::int32_t kBufferQuantum = 64;

std::int32_t
roundUp(double v)
{
    const auto n = static_cast<std::int32_t>(std::ceil(v));
    return (n + kBufferQuantum - 1) / kBufferQuantum * kBufferQuantum;
}

/** Set-up product: the trace, its input images and partitions. */
struct Inputs
{
    std::vector<core::PipelineResult> trace;  ///< Q-VR cells
    std::map<std::pair<int, int>, core::Image> natives;
    /** Synthetic layer buffers keyed by (native dims, buffer dims). */
    std::map<std::tuple<int, int, int, int>, core::Image> buffers;
    std::vector<Partition> partitions;

    /** A buffer of at least @p w x @p h texels holding @p native seen
     *  through @p map. */
    const core::Image *buffer(const core::Image &native, double w,
                              double h, const foveation::LayerTransform &map)
    {
        const auto key = std::make_tuple(native.width(), native.height(),
                                         roundUp(w), roundUp(h));
        auto it = buffers.find(key);
        if (it == buffers.end())
            it = buffers
                     .emplace(key, layerBuffer(native, std::get<2>(key),
                                               std::get<3>(key), map))
                     .first;
        return &it->second;
    }
};

Inputs
buildInputs(std::uint64_t seed)
{
    Inputs in;
    std::vector<SuCell> cells;
    for (const SuCell &c : makeSingleUserGrid(seed, kSingleUserFrames))
        if (c.design == core::DesignPoint::Qvr && !c.faulted)
            cells.push_back(c);

    for (const SuCell &cell : cells) {
        CellRun run = runCell(cell, true, nullptr, nullptr, 0, 0);
        const core::PipelineConfig cfg = cell.spec.toConfig();
        const foveation::LayerGeometry geometry(cfg.display(), cfg.mar);
        const foveation::PartitionOracle oracle(geometry);
        const auto &display = geometry.display();
        const double ppd = display.pixelsPerDegree();
        const auto key = std::make_pair(display.width, display.height);
        if (!in.natives.count(key))
            in.natives.emplace(key,
                               makePattern(display.width, display.height));
        const core::Image &native = in.natives.at(key);
        const auto uniformLayer = [&](double sub) {
            return in.buffer(native, display.width / sub,
                             display.height / sub,
                             foveation::LayerTransform::uniform(sub));
        };

        const auto &frames = run.result.frames;
        const std::size_t first = run.result.warmupFrames;
        const std::size_t stride =
            (frames.size() - first) / kPartitionsPerScene;
        for (std::size_t j = 0; j < kPartitionsPerScene; j++) {
            const std::size_t i = first + j * stride;
            const FrameInput &fi = run.inputs[i];
            const auto &r = oracle.resolve(frames[i].e1, fi.gaze);

            Partition p;
            p.scene = cell.spec.benchmark;
            core::PixelPartition pp;
            pp.centerX = display.width / 2.0 + fi.gaze.x * ppd;
            pp.centerY = display.height / 2.0 + fi.gaze.y * ppd;
            pp.foveaRadius = frames[i].e1 * ppd;
            pp.middleRadius = frames[i].e2 * ppd;
            const Vec2 atw{
                std::clamp(fi.delta.dOrientation.x * ppd, -kMaxAtwShiftPx,
                           kMaxAtwShiftPx),
                std::clamp(fi.delta.dOrientation.y * ppd, -kMaxAtwShiftPx,
                           kMaxAtwShiftPx)};

            p.unified.fovea = &native;
            p.unified.middle = uniformLayer(r.pixels.middleFactor);
            p.unified.outer = uniformLayer(r.pixels.outerFactor);
            p.unified.sMiddle = r.pixels.middleFactor;
            p.unified.sOuter = r.pixels.outerFactor;
            p.unified.partition = pp;
            p.unified.atwShift = atw;

            foveation::CompressedLayoutParams lp;
            lp.centerX = pp.centerX;
            lp.centerY = pp.centerY;
            lp.foveaRadius = pp.foveaRadius;
            lp.middleRadius = pp.middleRadius;
            lp.blendBand = pp.blendBand;
            lp.sMiddle = r.pixels.middleFactor;
            lp.sOuter = r.pixels.outerFactor;
            lp.frameWidth = display.width;
            lp.frameHeight = display.height;
            const foveation::CompressedFrameLayout layout =
                foveation::makeCompressedLayout(lp);
            p.compressed.fovea = &native;
            p.compressed.middle =
                in.buffer(native, layout.middle.bufWidth,
                          layout.middle.bufHeight, layout.middle.map);
            p.compressed.outer =
                in.buffer(native, layout.outer.bufWidth,
                          layout.outer.bufHeight, layout.outer.map);
            p.compressed.middleMap = layout.middle.map;
            p.compressed.outerMap = layout.outer.map;
            p.compressed.partition = pp;
            p.compressed.atwShift = atw;
            p.compressed.width = display.width;
            p.compressed.height = display.height;
            p.pixels = display.pixelCount();
            in.partitions.push_back(std::move(p));
        }
        in.trace.push_back(std::move(run.result));
    }
    return in;
}

/** Host time per composition over the traced runs. */
struct RepTimes
{
    std::vector<double> unifiedMs;
    std::vector<double> compressedMs;
    std::uint64_t tiles = 0, fastTiles = 0, blendTiles = 0;
};

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

Outcome
runPixelCompose(const Options &opt)
{
    Outcome out;
    const Inputs in = buildInputs(opt.seed);
    core::PixelEngine engine(1);
    markSetupDone();
    if (opt.setupOnly)
        return out;

    // One timed unit is one partition, composed in both layouts.
    double pixels = 0.0;
    for (const Partition &p : in.partitions)
        pixels += 2.0 * static_cast<double>(p.pixels);

    std::vector<double> compose_ms;
    const auto composeRep = [&](std::size_t unit, Tracer *t,
                                RepTimes *times) {
        const std::uint32_t rep_span = t ? t->begin("partition") : 0;
        const Partition &p = in.partitions[unit];
        // Each output frame is dropped as soon as it is composed.
        const auto t0 = Clock::now();
        engine.ucaUnified(p.unified);
        const auto t1 = Clock::now();
        const core::PixelEngineStats su = engine.lastStats();
        engine.ucaUnifiedCompressed(p.compressed);
        const auto t2 = Clock::now();
        const double ua =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double ub =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        compose_ms.push_back(ua);
        compose_ms.push_back(ub);
        if (times) {
            const core::PixelEngineStats &sc = engine.lastStats();
            times->unifiedMs.push_back(ua);
            times->compressedMs.push_back(ub);
            times->tiles += su.tiles + sc.tiles;
            times->fastTiles += su.fastPathTiles() + sc.fastPathTiles();
            times->blendTiles += su.blendTiles + sc.blendTiles;
        }
        if (t) {
            t->add("core.pixel_engine.ucaUnified", t0, t1, rep_span,
                   unit + 1);
            t->add("core.pixel_engine.ucaUnifiedCompressed", t1, t2,
                   rep_span, unit + 1);
            t->end(rep_span);
        }
        return 1.0;
    };

    Tracer tracer;
    RepTimes times;
    const auto untracedRep = [&](std::size_t unit, std::size_t) {
        return composeRep(unit, nullptr, nullptr);
    };
    const auto tracedRep = [&](std::size_t unit, std::size_t pass) {
        return composeRep(unit, pass == 0 ? &tracer : nullptr, &times);
    };
    const std::vector<TimedUnits> sides =
        opt.trace ? timeUnits(opt.seconds, in.partitions.size(),
                              {untracedRep, tracedRep})
                  : timeUnits(opt.seconds, in.partitions.size(),
                              {untracedRep});
    const TimedUnits &untraced = sides[0];
    const double peak_rss = peakRssMb();
    const Tail tail = tailPercentile(compose_ms, 0.99);

    // ---- Correctness: a sample of frames (one per scene) must match
    //      the scalar references exactly, and the engine must give the
    //      same pixels at 1 and N workers. ------------------------------
    core::PixelEngine wide(opt.workers);
    for (std::size_t i = 0; i < in.partitions.size();
         i += kPartitionsPerScene) {
        const Partition &p = in.partitions[i];
        const std::string workers = std::to_string(opt.workers);
        {
            const core::Image a = engine.ucaUnified(p.unified);
            out.checks.check(a.maxAbsDiff(core::ucaUnified(p.unified)) == 0.0,
                             p.scene + ": tiled ucaUnified differs from "
                                       "the scalar reference");
            out.checks.check(a.maxAbsDiff(wide.ucaUnified(p.unified)) == 0.0,
                             p.scene + ": ucaUnified differs at 1 vs " +
                                 workers + " workers");
        }
        const core::Image b = engine.ucaUnifiedCompressed(p.compressed);
        out.checks.check(
            b.maxAbsDiff(core::ucaUnifiedCompressed(p.compressed)) == 0.0,
            p.scene + ": tiled ucaUnifiedCompressed differs from the "
                      "scalar reference");
        out.checks.check(
            b.maxAbsDiff(wide.ucaUnifiedCompressed(p.compressed)) == 0.0,
            p.scene + ": ucaUnifiedCompressed differs at 1 vs " + workers +
                " workers");
    }

    // ---- Metrics ----------------------------------------------------
    std::vector<double> mtp, comp, bytes;
    for (const core::PipelineResult &r : in.trace) {
        mtp.push_back(r.meanMtp());
        comp.push_back(r.fpsCompliance());
        bytes.push_back(r.meanTransmittedBytes());
    }
    Report &rep = out.report;
    rep.set("user_frames_per_s", untraced.rate(), "frames/s");
    rep.set("peak_rss_mb", peak_rss, "MB");
    rep.set("mtp_ms_mean", toMs(mean(mtp)), "ms");
    rep.set("fps_compliance", mean(comp), "ratio");
    rep.set("downlink_kb_per_frame", mean(bytes) / 1e3, "KB");
    rep.set("mpix_per_s",
            untraced.rate() * pixels /
                static_cast<double>(in.partitions.size()) / 1e6,
            "Mpix/s");
    rep.set("compose_ms_p99", tail.value, "ms");

    section("pixel-compose (" + std::to_string(in.partitions.size()) +
            " partitions x {unified, compressed}, seed " +
            std::to_string(opt.seed) + ", SIMD " +
            core::simd::backendName(engine.backend()) + ")");
    std::printf("  host: %s, %.1f Mpix/s\n", untraced.describe().c_str(),
                rep.find("mpix_per_s")->value);
    std::printf("  compose_ms_p99 at p%.2f over %zu compositions\n",
                100.0 * tail.p, tail.samples);
    std::printf("  mtp/fps/downlink describe the Q-VR trace the partitions "
                "come from (unvalidated against the paper)\n");

    if (!opt.trace)
        return out;

    const TimedUnits &traced = sides[1];
    const double traced_seconds = traced.totalSeconds();
    const double traced_frames = traced.totalFrames();
    double unified_ms = 0.0, compressed_ms = 0.0;
    for (double x : times.unifiedMs)
        unified_ms += x;
    for (double x : times.compressedMs)
        compressed_ms += x;
    const double composes = 2.0 * traced_frames;
    const double residual_ms =
        traced_seconds * 1e3 - unified_ms - compressed_ms;
    const double overhead = 1.0 - traced.wallRate() / untraced.wallRate();

    rep.set("core.pixel_engine.host_ms_per_frame.unified",
            unified_ms / traced_frames, "ms");
    rep.set("core.pixel_engine.host_ms_per_frame.compressed",
            compressed_ms / traced_frames, "ms");
    rep.set("core.pixel_engine.fast_path_tile_ratio",
            static_cast<double>(times.fastTiles) /
                static_cast<double>(times.tiles),
            "ratio");
    rep.set("core.pixel_engine.blend_tiles_per_frame",
            static_cast<double>(times.blendTiles) / composes, "count");
    rep.set("residual.host_us_per_frame", residual_ms / traced_frames * 1e3,
            "us");
    rep.set("trace.overhead_frac", overhead, "ratio");

    printLayerSplit("pixel-compose",
                    {{"core.pixel_engine ucaUnified",
                      unified_ms / traced_frames * 1e3},
                     {"core.pixel_engine ucaUnifiedCompressed",
                      compressed_ms / traced_frames * 1e3},
                     {"residual (harness)", residual_ms / traced_frames * 1e3}},
                    1e6 / untraced.wallRate(), overhead);
    const std::string path = opt.traceDir + "/pixel-compose-" +
                             std::to_string(opt.seed) + ".json";
    if (tracer.writeChromeJson(path))
        std::printf("  wrote %zu spans to %s\n", tracer.size(),
                    path.c_str());
    else
        std::cerr << "cannot write " << path << "\n";
    return out;
}

}  // namespace perfbench
