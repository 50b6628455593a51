#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <queue>
#include <unordered_map>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

Tail
tailPercentile(std::vector<double> v, double want)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    const double n = static_cast<double>(v.size());
    t.p = std::max(0.5, std::min(want, 1.0 - 10.0 / n));
    t.value = percentile(std::move(v), t.p);
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000ll +
           ts.tv_nsec;
}

void
Checks::check(bool ok, const std::string &what)
{
    attempted++;
    if (!ok) {
        failed++;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
TimedUnits::wallRate() const
{
    double f = 0.0, t = 0.0;
    for (std::size_t u = 0; u < frames.size(); u++) {
        f += frames[u];
        t += *std::min_element(seconds[u].begin(), seconds[u].end());
    }
    return f / t;
}

double
TimedUnits::hostSlowdown() const
{
    return median(reference) / kReferenceSeconds;
}

double
TimedUnits::rate() const
{
    return wallRate() * hostSlowdown();
}

double
TimedUnits::totalSeconds() const
{
    double t = 0.0;
    for (const auto &unit : seconds)
        for (const double s : unit)
            t += s;
    return t;
}

double
TimedUnits::totalFrames() const
{
    double f = 0.0;
    for (std::size_t u = 0; u < frames.size(); u++)
        f += frames[u] * static_cast<double>(seconds[u].size());
    return f;
}

std::string
TimedUnits::describe() const
{
    std::size_t runs = 0;
    for (const auto &unit : seconds)
        runs += unit.size();
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%zu runs of %zu units: %.1f user-frames/s wall-clock; "
                  "reference kernel %.3f ms (x%.3f of nominal, %zu samples) "
                  "-> %.1f user-frames/s",
                  runs, seconds.size(), wallRate(), 1e3 * median(reference),
                  hostSlowdown(), reference.size(), rate());
    return buf;
}

namespace
{

/** Keeps the reference kernel's result alive. */
volatile double referenceSink;

/**
 * A fixed mix of what the simulator spends its time on: a binary heap
 * of event times, hash-map lookups, libm calls and dependent loads from
 * an 8 MB table.  Returns its wall seconds.  It never changes, so its
 * time tracks only the speed the shared host gives the benchmark.
 */
double
referenceKernel(const std::vector<std::uint32_t> &table)
{
    const auto t0 = Clock::now();
    std::uint64_t h = 88172645463325252ull, acc = 0;
    const auto next = [&h] {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        return h;
    };
    double x = 0.0;
    for (int round = 0; round < 4; round++) {
        std::priority_queue<double, std::vector<double>, std::greater<>> q;
        for (int i = 0; i < 4096; i++)
            q.push(static_cast<double>(next() % 100000) * 1e-3);
        for (int i = 0; i < 4096; i++) {
            x += std::sqrt(q.top()) + std::exp(-q.top() * 1e-2);
            q.pop();
        }
        std::unordered_map<std::uint64_t, double> m;
        for (int i = 0; i < 2048; i++)
            m[next() % 4096] += x;
        for (int i = 0; i < 8192; i++) {
            const auto it = m.find(next() % 4096);
            if (it != m.end())
                acc += static_cast<std::uint64_t>(it->second) & 7;
        }
        std::size_t j = next();
        for (int i = 0; i < 20000; i++) {
            j = j * 1103515245 + 12345 + table[j & (table.size() - 1)];
            acc += table[j & (table.size() - 1)];
        }
    }
    referenceSink = x + static_cast<double>(acc);
    return secondsSince(t0);
}

}  // namespace

std::vector<TimedUnits>
timeUnits(double budget, std::size_t units, const std::vector<UnitFn> &sides)
{
    std::vector<std::uint32_t> table(1u << 21);
    for (std::size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    std::vector<TimedUnits> out(sides.size());
    for (TimedUnits &t : out) {
        t.seconds.resize(units);
        t.frames.resize(units);
    }
    std::vector<double> reference;
    const auto start = Clock::now();
    for (std::size_t k = 0; k < units || secondsSince(start) < budget; k++) {
        const std::size_t unit = k % units;
        const auto round = Clock::now();
        for (std::size_t side = 0; side < sides.size(); side++) {
            const auto t0 = Clock::now();
            out[side].frames[unit] = sides[side](unit, k / units);
            out[side].seconds[unit].push_back(secondsSince(t0));
        }
        // The reference kernel takes a tenth of the time the sides just
        // took, so its samples follow the host through the whole run.
        const double due = 0.1 * secondsSince(round);
        double spent = 0.0;
        do {
            reference.push_back(referenceKernel(table));
            spent += reference.back();
        } while (spent < due);
    }
    for (TimedUnits &t : out)
        t.reference = reference;
    return out;
}

Tracer::Tracer() : origin_(Clock::now())
{
    // Span 0 is the root every parent chain ends in.
    spans_.push_back({"run", origin_, origin_, 0, 0});
}

std::uint32_t
Tracer::begin(const char *name, std::uint32_t parent, std::uint64_t frame)
{
    const auto now = Clock::now();
    spans_.push_back({name, now, now, parent, frame});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::end(std::uint32_t id)
{
    spans_[id].end = Clock::now();
}

std::uint32_t
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, std::uint32_t parent,
            std::uint64_t frame)
{
    spans_.push_back({name, start, end, parent, frame});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
    for (std::size_t i = 1; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        os << (i > 1 ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
           << ",\"dur\":" << us(s.end) - us(s.start)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"frame\":" << s.frame << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(os);
}

void
markSetupDone()
{
    std::cout << "SETUP_DONE_NS " << monotonicNs() << std::endl;
}

void
section(const std::string &title)
{
    std::cout << "\n## " << title << "\n";
}

void
printLayerSplit(const std::string &workload,
                const std::vector<LayerShare> &layers,
                double untracedUsPerFrame, double overheadFrac)
{
    double sum = 0.0;
    for (const LayerShare &l : layers)
        sum += l.usPerFrame;
    section("host time per user-frame by layer (" + workload + ")");
    const LayerShare *top = nullptr;
    for (const LayerShare &l : layers) {
        std::printf("  %-44s %12.3f us  %6.1f%%\n", l.layer.c_str(),
                    l.usPerFrame, sum > 0 ? 100.0 * l.usPerFrame / sum
                                          : 0.0);
        if (!top || l.usPerFrame > top->usPerFrame)
            top = &l;
    }
    std::printf("  %-44s %12.3f us\n", "sum (traced)", sum);
    std::printf("  %-44s %12.3f us\n", "untraced host time",
                untracedUsPerFrame);
    const double gap =
        untracedUsPerFrame > 0 ? sum / untracedUsPerFrame - 1.0 : 0.0;
    std::printf("  split vs untraced: %+.2f%%, trace.overhead_frac "
                "%+.2f%%\n",
                100.0 * gap, 100.0 * overheadFrac);
    if (top)
        std::printf("  largest host share on %s: %s (%.1f%%)\n",
                    workload.c_str(), top->layer.c_str(),
                    sum > 0 ? 100.0 * top->usPerFrame / sum : 0.0);
}

}  // namespace perfbench
