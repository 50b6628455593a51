/**
 * @file
 * Shared machinery of the repository benchmark: command-line options,
 * seed derivation, the timed unit loop, percentiles, the metric
 * report, correctness-check accounting and the in-memory span tracer
 * that the traced run writes out as Chrome trace-event JSON.
 */

#ifndef QVR_PERFBENCH_HARNESS_HPP
#define QVR_PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    /** Stop right after set-up (run.py times process start-up). */
    bool setupOnly = false;
    /** Worker count of the 1-vs-N determinism check. */
    std::size_t workers = 1;
    /** Directory the traced run writes its Chrome trace into. */
    std::string traceDir = ".bench_build/traces";
};

/** splitmix64 of (@p seed, @p tag): one independent library seed per
 *  role, all derived from the benchmark's single seed argument. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile (p in [0, 1]) of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** A tail percentile that keeps at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    double p = 0.0;        ///< percentile actually used, in [0, 1]
    std::size_t samples = 0;
};

/** The @p want percentile of @p v, lowered to 1 - 10/n when fewer
 *  than ten samples would lie beyond it. */
Tail tailPercentile(std::vector<double> v, double want);

/** Peak resident set size of this process so far, MB. */
double peakRssMb();

/** CLOCK_MONOTONIC now, nanoseconds (run.py reads the same clock). */
std::int64_t monotonicNs();

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Correctness-check accounting: attempted / failed operations. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one checked operation; print @p what when it failed. */
    void check(bool ok, const std::string &what);
};

/**
 * Ordered metric report.  The workload fills it; main() prints the
 * human-readable table and the machine-readable result line.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &metrics() const { return metrics_; }
    const Metric *find(const std::string &name) const;

  private:
    std::vector<Metric> metrics_;
};

/** Median seconds of the reference kernel on the host the benchmark
 *  was tuned on (4-core x86-64, 2026) in its fast state. */
constexpr double kReferenceSeconds = 3.3e-3;

/**
 * Host timing of a workload made of independent units of work (one
 * cell, one cohort, one episode, one partition).  Units run round-robin
 * until the run's time budget is spent, every unit at least once.
 *
 * Every pass of a unit does the same work, and a shared host only ever
 * adds time to a pass, so the wall-clock rate is all user-frames over
 * the sum of each unit's fastest pass.  A shared host also runs whole
 * minutes slower or faster; a fixed reference kernel, timed between the
 * passes through the whole run, measures by how much, and the reported
 * rate is the wall-clock rate scaled to a host whose reference time is
 * kReferenceSeconds.
 */
struct TimedUnits
{
    std::vector<std::vector<double>> seconds;  ///< [unit][pass]
    std::vector<double> frames;                ///< user-frames per unit
    std::vector<double> reference;  ///< reference-kernel seconds, in order

    /** User-frames per wall-second: sum of frames over the sum of the
     *  per-unit fastest times. */
    double wallRate() const;
    /** Median reference time over kReferenceSeconds (> 1: slower). */
    double hostSlowdown() const;
    /** wallRate() scaled to the nominal host: the reported rate. */
    double rate() const;
    /** Wall seconds and user-frames summed over every pass. */
    double totalSeconds() const;
    double totalFrames() const;
    /** One line on the passes, both rates and the host factor. */
    std::string describe() const;
};

/** One side of a timed run: runs @p unit (pass = how many times it
 *  ran before) and returns the user-frames it completed. */
using UnitFn = std::function<double(std::size_t unit, std::size_t pass)>;

/** Run the @p sides (untraced; traced; replay) on each unit in turn,
 *  round-robin over @p units, until @p budget seconds are spent and
 *  every unit ran once; interleaving gives every side the same machine
 *  state.  Returns one TimedUnits per side, all with the same reference
 *  samples. */
std::vector<TimedUnits> timeUnits(double budget, std::size_t units,
                                  const std::vector<UnitFn> &sides);

/**
 * In-memory span recorder.  A span has a name, start, end, the span
 * that caused it, and the user-frame it belongs to (0 = none).  Spans
 * are kept in memory and written once, at exit.
 */
class Tracer
{
  public:
    Tracer();

    /** Open a span; returns its id. */
    std::uint32_t begin(const char *name, std::uint32_t parent = 0,
                        std::uint64_t frame = 0);
    /** Close span @p id. */
    void end(std::uint32_t id);

    /** Record an already-measured span. */
    std::uint32_t add(const char *name, Clock::time_point start,
                      Clock::time_point end, std::uint32_t parent,
                      std::uint64_t frame);

    /** Chrome trace-event JSON ("X" events, times in microseconds
     *  from the tracer's construction; args carry id/parent/frame). */
    bool writeChromeJson(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint32_t parent;
        std::uint64_t frame;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span on an optional tracer (no-op when @p t is null). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, std::uint32_t parent = 0,
               std::uint64_t frame = 0)
        : t_(t), id_(t ? t->begin(name, parent, frame) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
    std::uint32_t id_;
};

/** What a workload hands back to main(). */
struct Outcome
{
    Report report;
    Checks checks;
};

/** Call after set-up: prints the set-up timestamp run.py reads. */
void markSetupDone();

/** Print one "## title" section header of the human-readable output. */
void section(const std::string &title);

/** Per-layer host-share table and the largest-share statement. */
struct LayerShare
{
    std::string layer;
    double usPerFrame = 0.0;
};
void printLayerSplit(const std::string &workload,
                     const std::vector<LayerShare> &layers,
                     double untracedUsPerFrame, double overheadFrac);

/** Workload entry points. */
Outcome runSingleUser(const Options &opt);
Outcome runFleetClosed(const Options &opt);
Outcome runFleetOpen(const Options &opt);
Outcome runPixelCompose(const Options &opt);

}  // namespace perfbench

#endif  // QVR_PERFBENCH_HARNESS_HPP
