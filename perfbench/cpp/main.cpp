/**
 * @file
 * Entry point of the repository benchmark (run through perfbench/run.py,
 * which builds this program and adds the set-up time).
 *
 *   qvr_perfbench --workload <single-user|fleet-closed|fleet-open|
 *                 pixel-compose> --seed <n> --seconds <s> --trace <0|1>
 *                 [--setup-only] [--workers <n>] [--trace-dir <dir>]
 *
 * Prints a human-readable report, then one line
 * `RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
 * holding every metric the workload measured; run.py picks the ones
 * BENCHMARK.json names for the mode.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "qvr_perfbench: " << why
              << "\nusage: qvr_perfbench --workload <single-user|"
                 "fleet-closed|fleet-open|pixel-compose> --seed <n>"
                 " --seconds <s> --trace <0|1> [--setup-only]"
                 " [--workers <n>] [--trace-dir <dir>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    const unsigned hw = std::thread::hardware_concurrency();
    o.workers = hw == 0 ? 1 : std::min(hw, 4u);
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--setup-only")
                o.setupOnly = true;
            else if (a == "--workers")
                o.workers = std::stoul(value());
            else if (a == "--trace-dir")
                o.traceDir = value();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.workers < 1)
        o.workers = 1;
    return o;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // A fixed mmap threshold: every large buffer (a composed frame, a
    // layer image) is mapped and unmapped on its own, so peak memory and
    // the cost of a pass do not depend on how long glibc's adaptive
    // threshold has let the heap fragment.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);

    if (opt.trace && !opt.setupOnly) {
        std::error_code ec;
        std::filesystem::create_directories(opt.traceDir, ec);
    }

    Outcome out;
    if (opt.workload == "single-user")
        out = runSingleUser(opt);
    else if (opt.workload == "fleet-closed")
        out = runFleetClosed(opt);
    else if (opt.workload == "fleet-open")
        out = runFleetOpen(opt);
    else if (opt.workload == "pixel-compose")
        out = runPixelCompose(opt);
    else
        usage("unknown workload " + opt.workload);
    if (opt.setupOnly)
        return 0;

    const double failed_frac =
        out.checks.attempted
            ? static_cast<double>(out.checks.failed) /
                  static_cast<double>(out.checks.attempted)
            : 0.0;
    out.report.set("failed_frac", failed_frac, "ratio");

    section("metrics (" + opt.workload + ", seed " +
            std::to_string(opt.seed) + ")");
    for (const Metric &m : out.report.metrics())
        std::printf("  %-48s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  correctness: %llu of %llu checked operations failed\n",
                static_cast<unsigned long long>(out.checks.failed),
                static_cast<unsigned long long>(out.checks.attempted));

    std::string json = "{";
    for (const Metric &m : out.report.metrics()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        if (json.size() > 1)
            json += ",";
        json += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" +
                m.unit + "\"}";
    }
    json += "}";
    std::cout << "RESULT {\"correct\":"
              << (out.checks.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << out.checks.attempted
              << ",\"failed\":" << out.checks.failed
              << ",\"metrics\":" << json << "}" << std::endl;
    return 0;
}
