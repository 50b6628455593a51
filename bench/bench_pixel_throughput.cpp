/**
 * @file
 * Pixel-throughput benchmark for the UCA functional paths: Mpix/s of
 * the scalar reference loops vs the tiled PixelEngine across the
 * compiled SIMD dispatch backends (scalar / AVX2 / NEON), serial and
 * thread-parallel, for the unified (Eq. 4) and two-pass sequential
 * (Eq. 3) composition, plus a per-kernel breakdown (interior
 * bilinear vs blend-band trilinear) on synthetic all-interior /
 * all-blend partitions whose tile census is verified before timing.
 *
 * Output: a TextTable on stdout and BENCH_pixel_throughput.json
 * (path overridable with --json <path>); --quick shrinks the
 * repetition count for CI smoke runs (the `perf` CTest label);
 * --dispatch <scalar|avx2|neon> restricts the backend sweep.  Every
 * tiled variant is verified bit-identical (maxAbsDiff == 0) against
 * its scalar reference before timing, and the run FAILS (exit 1)
 * unless the best SIMD backend reaches the pinned >= 4x serial
 * speedup over the scalar composite loop on the largest canvas
 * (skipped, loudly, when no SIMD backend is compiled/supported).
 * The gate times its two sides apart from the table: interleaved
 * scalar/SIMD pairs in per-thread CPU time, best of kGatePairs per
 * side, so time other processes hold the core is not counted and a
 * burst of host load hits both sides alike.
 */

#include "bench_util.hpp"

#include <chrono>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pixel_engine.hpp"

namespace
{

using namespace qvr;

/** Pinned acceptance gate: SIMD serial composite vs scalar loop. */
constexpr double kRequiredSpeedup = 4.0;
/** Interleaved scalar/SIMD timing pairs behind the gate. */
constexpr int kGatePairs = 15;

core::Image
makePattern(std::int32_t w, std::int32_t h)
{
    core::Image img(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        core::Rgb *row = img.rowSpan(y);
        for (std::int32_t x = 0; x < w; x++) {
            const double fx = x + 0.5;
            const double fy = y + 0.5;
            row[x] = core::Rgb{
                static_cast<float>(
                    0.5 + 0.5 * std::sin(fx * 0.11)),
                static_cast<float>(
                    0.5 + 0.5 * std::cos(fy * 0.07)),
                static_cast<float>(
                    0.5 + 0.25 * std::sin((fx + fy) * 0.05))};
        }
    }
    return img;
}

core::Image
downsample(const core::Image &src, double s)
{
    const auto w =
        std::max(1, static_cast<std::int32_t>(src.width() / s));
    const auto h =
        std::max(1, static_cast<std::int32_t>(src.height() / s));
    core::Image out(w, h);
    for (std::int32_t y = 0; y < h; y++) {
        for (std::int32_t x = 0; x < w; x++) {
            out.at(x, y) = src.sampleBilinear((x + 0.5) * s,
                                              (y + 0.5) * s);
        }
    }
    return out;
}

/** Best-of-N wall time of fn(), seconds. */
double
bestSeconds(int reps, const std::function<void()> &fn)
{
    using clock = std::chrono::steady_clock;
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps; i++) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** CPU seconds this thread spends in fn(): unlike wall time, blind
 *  to the time other processes hold the core. */
double
threadCpuSeconds(const std::function<void()> &fn)
{
    timespec t0{}, t1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    fn();
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    return static_cast<double>(t1.tv_sec - t0.tv_sec) +
           static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
}

struct Row
{
    std::string path;      ///< uca_unified | sequential |
                           ///< interior_bilinear | blend_trilinear
    std::string engine;    ///< scalar (reference loop) | tiled
    std::string dispatch;  ///< ref | scalar | avx2 | neon
    std::size_t threads;
    std::int32_t size;
    double mpixPerS;
    double maxAbsDiff;     ///< vs the scalar reference (0 required)
    double speedup;        ///< vs the scalar reference loop
};

}  // namespace

int
main(int argc, char **argv)
{
    using namespace qvr;
    using namespace qvr::bench;

    bool quick = false;
    std::string json_path = "BENCH_pixel_throughput.json";
    std::string only_dispatch;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--dispatch" && i + 1 < argc) {
            only_dispatch = argv[++i];
        } else {
            std::cerr << "usage: bench_pixel_throughput [--quick]"
                         " [--json <path>]"
                         " [--dispatch <scalar|avx2|neon>]\n";
            return 2;
        }
    }

    printHeader("pixel throughput — scalar vs tiled+SIMD UCA "
                "pipeline");

    // Backend sweep: every backend compiled in AND runnable on this
    // host (each is bit-exact, so the sweep is timing-only).
    std::vector<core::simd::Backend> backends;
    for (const auto b :
         {core::simd::Backend::Scalar, core::simd::Backend::Avx2,
          core::simd::Backend::Neon}) {
        if (!core::simd::backendSupported(b))
            continue;
        if (!only_dispatch.empty() &&
            only_dispatch != core::simd::backendName(b))
            continue;
        backends.push_back(b);
    }
    if (backends.empty()) {
        std::cerr << "no requested SIMD backend is supported here\n";
        return 2;
    }

    const int reps = quick ? 2 : 5;
    const std::vector<std::int32_t> sizes{512, 1024};
    const std::int32_t gate_size = sizes.back();

    const std::size_t n_threads =
        sim::ThreadPool::defaultParallelism();

    TextTable table("UCA pixel throughput (best of " +
                    std::to_string(reps) + ")");
    table.setHeader({"path", "engine", "dispatch", "threads",
                     "canvas", "Mpix/s", "speedup", "maxAbsDiff"});

    std::vector<Row> rows;
    double gate_speedup = 0.0;  ///< best SIMD serial composite
    std::string gate_dispatch;
    for (const std::int32_t size : sizes) {
        const core::Image native = makePattern(size, size);
        const core::Image middle = downsample(native, 2.0);
        const core::Image outer = downsample(native, 4.0);

        core::UcaFrameInputs in;
        in.fovea = &native;
        in.middle = &middle;
        in.outer = &outer;
        in.sMiddle = 2.0;
        in.sOuter = 4.0;
        // Paper-shaped partition: fovea ~1/6 of the canvas, blend
        // bands crossing many tile boundaries.
        in.partition.centerX = size / 2.0;
        in.partition.centerY = size / 2.0;
        in.partition.foveaRadius = size / 6.0;
        in.partition.middleRadius = size / 3.0;
        in.partition.blendBand = 16.0;
        in.atwShift = Vec2{1.7, -2.3};

        // Kernel-breakdown inputs: a partition whose fovea covers
        // the whole canvas (every tile takes the interior bilinear
        // fast path) and one whose blend band does (every tile pays
        // the trilinear path).  The tile census asserts both.
        core::UcaFrameInputs interior = in;
        interior.partition.foveaRadius = 4.0 * size;
        interior.partition.middleRadius = 5.0 * size;
        core::UcaFrameInputs blend = in;
        blend.partition.foveaRadius = 0.0;
        blend.partition.middleRadius = 3.0 * size;
        blend.partition.blendBand = 3.0 * size;

        const double mpix =
            static_cast<double>(size) * size / 1e6;

        struct Variant
        {
            std::string path;
            std::string engine;
            std::string dispatch;
            std::size_t threads;
            std::function<core::Image()> run;
            /** Census required after run() (0 = don't check). */
            std::uint32_t wantFovea = 0, wantBlend = 0;
            core::PixelEngine *census = nullptr;
        };
        std::vector<Variant> variants{
            {"uca_unified", "scalar", "ref", 1,
             [&] { return core::ucaUnified(in); }},
            {"sequential", "scalar", "ref", 1,
             [&] { return core::sequentialCompositeAtw(in); }},
            {"interior_bilinear", "scalar", "ref", 1,
             [&] { return core::ucaUnified(interior); }},
            {"blend_trilinear", "scalar", "ref", 1,
             [&] { return core::ucaUnified(blend); }},
        };

        std::vector<std::unique_ptr<core::PixelEngine>> engines;
        const std::uint32_t tiles_per_side =
            (size + core::kPixelTileSize - 1) / core::kPixelTileSize;
        const std::uint32_t tiles = tiles_per_side * tiles_per_side;
        for (const auto b : backends) {
            engines.push_back(
                std::make_unique<core::PixelEngine>(1, b));
            core::PixelEngine *serial = engines.back().get();
            const std::string name = core::simd::backendName(b);
            variants.push_back({"uca_unified", "tiled", name, 1,
                                [&, serial] {
                                    return serial->ucaUnified(in);
                                }});
            variants.push_back(
                {"sequential", "tiled", name, 1, [&, serial] {
                     return serial->sequentialCompositeAtw(in);
                 }});
            variants.push_back({"interior_bilinear", "tiled", name,
                                1,
                                [&, serial] {
                                    return serial->ucaUnified(
                                        interior);
                                },
                                tiles, 0, serial});
            variants.push_back({"blend_trilinear", "tiled", name, 1,
                                [&, serial] {
                                    return serial->ucaUnified(blend);
                                },
                                0, tiles, serial});
        }
        if (n_threads > 1) {
            engines.push_back(std::make_unique<core::PixelEngine>(
                n_threads, backends.back()));
            core::PixelEngine *par = engines.back().get();
            variants.push_back(
                {"uca_unified", "tiled",
                 core::simd::backendName(backends.back()), n_threads,
                 [&, par] { return par->ucaUnified(in); }});
        }

        std::map<std::string, double> scalar_rate;
        std::map<std::string, core::Image> reference;
        for (const Variant &v : variants) {
            const core::Image out = v.run();  // warm-up + checksum
            if (v.census) {
                const auto &st = v.census->lastStats();
                if (st.tiles != tiles ||
                    st.foveaTiles != v.wantFovea ||
                    st.blendTiles != v.wantBlend) {
                    std::cerr << "FAIL: synthetic partition census "
                                 "mismatch (path="
                              << v.path << ", fovea="
                              << st.foveaTiles << "/" << v.wantFovea
                              << ", blend=" << st.blendTiles << "/"
                              << v.wantBlend << ")\n";
                    return 1;
                }
            }
            double diff = 0.0;
            if (v.engine == "scalar")
                reference.emplace(v.path, out);
            else
                diff = out.maxAbsDiff(reference.at(v.path));

            const double secs =
                bestSeconds(reps, [&v] { (void)v.run(); });
            const double rate = mpix / secs;
            if (v.engine == "scalar")
                scalar_rate[v.path] = rate;
            const double speedup = rate / scalar_rate.at(v.path);

            rows.push_back(Row{v.path, v.engine, v.dispatch,
                               v.threads, size, rate, diff, speedup});
            table.addRow({v.path, v.engine, v.dispatch,
                          std::to_string(v.threads),
                          std::to_string(size) + "x" +
                              std::to_string(size),
                          TextTable::num(rate, 1),
                          TextTable::num(speedup, 2) + "x",
                          TextTable::num(diff, 1)});
            if (diff != 0.0) {
                std::cerr << "FAIL: tiled output differs from the "
                             "scalar reference (path="
                          << v.path << ", dispatch=" << v.dispatch
                          << ", threads=" << v.threads
                          << ", maxAbsDiff=" << diff << ")\n";
                return 1;
            }
        }

        // The gate: each vector backend's serial composite against
        // the scalar loop, timed as interleaved pairs so a burst of
        // host load hits both sides alike.  Each timed call follows
        // an untimed call of the same side, so neither side inherits
        // the other's cache and allocator state.
        if (size != gate_size)
            continue;
        for (std::size_t b = 0; b < backends.size(); b++) {
            if (backends[b] == core::simd::Backend::Scalar)
                continue;
            core::PixelEngine &serial = *engines[b];
            const auto scalar = [&] { (void)core::ucaUnified(in); };
            const auto simd = [&] { (void)serial.ucaUnified(in); };
            double scalar_s = std::numeric_limits<double>::infinity();
            double simd_s = scalar_s;
            for (int i = 0; i < kGatePairs; i++) {
                scalar();
                scalar_s = std::min(scalar_s, threadCpuSeconds(scalar));
                simd();
                simd_s = std::min(simd_s, threadCpuSeconds(simd));
            }
            if (scalar_s / simd_s > gate_speedup) {
                gate_speedup = scalar_s / simd_s;
                gate_dispatch = core::simd::backendName(backends[b]);
            }
        }
    }
    table.print(std::cout);

    std::cout << "\nReading: interior tiles skip radius, weights and"
                 " two of three layer samples and run the hoisted"
                 " SIMD bilinear kernel; blend-band tiles alone pay"
                 " the trilinear cost (scalar weights, vector"
                 " samples).  Every variant is bit-identical to the"
                 " scalar loops.\n";

    // ---- Acceptance gate: >= 4x serial composite on SIMD. --------
    bool gate_checked = false;
    bool gate_passed = false;
    const bool have_simd =
        gate_speedup > 0.0;  // a non-scalar backend was swept
    if (have_simd) {
        gate_checked = true;
        gate_passed = gate_speedup >= kRequiredSpeedup;
        std::cout << "\nSIMD gate: serial uca_unified (" << gate_dispatch
                  << ") speedup " << TextTable::num(gate_speedup, 2)
                  << "x vs scalar loop at " << gate_size << "x"
                  << gate_size << ", thread CPU time, best of "
                  << kGatePairs << " interleaved pairs (required "
                  << kRequiredSpeedup << "x): "
                  << (gate_passed ? "PASS" : "FAIL") << "\n";
    } else {
        std::cout << "\nSIMD gate: SKIPPED — no vector backend"
                     " compiled/supported on this host (scalar-only"
                     " sweep)\n";
    }

    std::ofstream os(json_path);
    if (!os) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    os << "{\n  \"bench\": \"pixel_throughput\",\n"
       << "  \"tile_size\": " << core::kPixelTileSize << ",\n"
       << "  \"default_threads\": " << n_threads << ",\n"
       << "  \"dispatch_default\": \""
       << core::simd::backendName(core::simd::dispatch()) << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"simd_gate\": {\"required_speedup\": "
       << kRequiredSpeedup << ", \"measured_speedup\": "
       << gate_speedup << ", \"status\": \""
       << (gate_checked ? (gate_passed ? "pass" : "fail")
                        : "skipped")
       << "\"},\n"
       << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        os << "    {\"path\": \"" << r.path << "\", \"engine\": \""
           << r.engine << "\", \"dispatch\": \"" << r.dispatch
           << "\", \"threads\": " << r.threads
           << ", \"canvas\": " << r.size
           << ", \"mpix_per_s\": " << r.mpixPerS
           << ", \"speedup_vs_scalar\": " << r.speedup
           << ", \"max_abs_diff_vs_scalar\": " << r.maxAbsDiff
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
    return gate_checked && !gate_passed ? 1 : 0;
}
