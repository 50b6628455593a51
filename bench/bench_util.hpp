/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: every
 * bench runs design points through the common experiment harness and
 * prints a TextTable mirroring one table/figure of the paper.
 *
 * Sweep grids are submitted through sim::runParallel, which fans the
 * independent cells across cores (QVR_JOBS overrides the worker
 * count).  Results come back in cell order, and every cell owns its
 * seeded Rng streams, so table output is bit-identical to the old
 * serial loops at any thread count.
 */

#ifndef QVR_BENCH_BENCH_UTIL_HPP
#define QVR_BENCH_BENCH_UTIL_HPP

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/qvr_system.hpp"
#include "sim/parallel.hpp"

namespace qvr::bench
{

/** Default frame count per experiment cell. */
constexpr std::size_t kFrames = 300;

/** Run one design on one benchmark under an environment. */
inline core::PipelineResult
runCell(core::DesignPoint design, const std::string &benchmark,
        const net::ChannelConfig &channel = net::ChannelConfig::wifi(),
        double freq_scale = 1.0, std::size_t frames = kFrames,
        std::uint64_t seed = 1)
{
    core::ExperimentSpec spec;
    spec.benchmark = benchmark;
    spec.channel = channel;
    spec.gpuFrequencyScale = freq_scale;
    spec.numFrames = frames;
    spec.seed = seed;
    return core::runExperiment(design, spec);
}

/** One sweep cell, for batch submission through runCells(). */
struct Cell
{
    core::DesignPoint design = core::DesignPoint::Qvr;
    std::string benchmark = "Doom3-H";
    net::ChannelConfig channel = net::ChannelConfig::wifi();
    double freqScale = 1.0;
    std::size_t frames = kFrames;
    std::uint64_t seed = 1;
};

/** Run a whole grid of cells across cores, results in cell order. */
inline std::vector<core::PipelineResult>
runCells(const std::vector<Cell> &cells)
{
    return sim::runParallel(cells.size(), [&cells](std::size_t i) {
        const Cell &c = cells[i];
        return runCell(c.design, c.benchmark, c.channel, c.freqScale,
                       c.frames, c.seed);
    });
}

/** Run a design on all Table-3 benchmarks (cells in parallel). */
inline std::vector<core::PipelineResult>
runTable3(core::DesignPoint design,
          const net::ChannelConfig &channel = net::ChannelConfig::wifi(),
          double freq_scale = 1.0, std::size_t frames = kFrames)
{
    std::vector<Cell> cells;
    for (const auto &b : scene::table3Benchmarks())
        cells.push_back({design, b.name, channel, freq_scale, frames, 1});
    return runCells(cells);
}

/** Run several designs over all Table-3 benchmarks as one flat grid;
 *  result index = design_index * numBenchmarks + benchmark_index. */
inline std::vector<core::PipelineResult>
runDesignGrid(const std::vector<core::DesignPoint> &designs,
              const net::ChannelConfig &channel =
                  net::ChannelConfig::wifi(),
              double freq_scale = 1.0, std::size_t frames = kFrames)
{
    std::vector<Cell> cells;
    for (const auto d : designs)
        for (const auto &b : scene::table3Benchmarks())
            cells.push_back({d, b.name, channel, freq_scale, frames, 1});
    return runCells(cells);
}

/** Arithmetic-mean helper for "average speedup" style rows. */
inline double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

inline void
printHeader(const std::string &what)
{
    std::cout << "\n### Q-VR reproduction: " << what << " ###\n\n";
}

}  // namespace qvr::bench

#endif  // QVR_BENCH_BENCH_UTIL_HPP
