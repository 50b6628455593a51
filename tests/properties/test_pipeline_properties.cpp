/**
 * @file
 * Property sweeps over the full (benchmark x network) experiment
 * grid: pipeline invariants that must hold in every environment.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/qvr_system.hpp"

namespace qvr::core
{
namespace
{

/** (benchmark, network).  std::string, not const char *: GoogleTest
 *  prints a tuple's char pointers as addresses, which would put
 *  per-build bytes into the CTest names. */
using Params = std::tuple<std::string, std::string>;

net::ChannelConfig
channelByName(const std::string &name)
{
    if (name == "Wi-Fi")
        return net::ChannelConfig::wifi();
    if (name == "4G LTE")
        return net::ChannelConfig::lte4g();
    return net::ChannelConfig::early5g();
}

class EnvironmentSweep : public ::testing::TestWithParam<Params>
{
  protected:
    ExperimentSpec
    spec() const
    {
        ExperimentSpec s;
        s.benchmark = std::get<0>(GetParam());
        s.channel = channelByName(std::get<1>(GetParam()));
        s.numFrames = 120;
        return s;
    }
};

TEST_P(EnvironmentSweep, QvrFrameInvariants)
{
    const PipelineResult r = runExperiment(DesignPoint::Qvr, spec());
    const PipelineConfig cfg = spec().toConfig();
    const double e1_max = cfg.display().maxEccentricity();

    Seconds prev_display = 0.0;
    for (const auto &f : r.frames) {
        // Physical floor: sensor + display latencies are always paid.
        EXPECT_GE(f.mtpLatency,
                  cfg.sensorLatency + cfg.displayLatency);
        EXPECT_LT(f.mtpLatency, 0.5);
        // Partition stays legal.
        EXPECT_GE(f.e1, foveation::LayerGeometry::kMinE1 - 1e-9);
        EXPECT_LE(f.e1, e1_max + 1e-9);
        EXPECT_GE(f.e2, f.e1 - 1e-9);
        // Time advances.
        EXPECT_GT(f.displayTime, prev_display);
        prev_display = f.displayTime;
        // Energy components non-negative.
        EXPECT_GE(f.energy.gpu, 0.0);
        EXPECT_GE(f.energy.radio, 0.0);
        EXPECT_GE(f.energy.accelerators, 0.0);
        // Resolution fraction is a fraction.
        EXPECT_GT(f.renderedResolutionFraction, 0.0);
        EXPECT_LE(f.renderedResolutionFraction, 1.0 + 1e-9);
    }
}

TEST_P(EnvironmentSweep, QvrSendsLessThanRemoteOnly)
{
    const double remote =
        runExperiment(DesignPoint::Remote, spec())
            .meanTransmittedBytes();
    const double qvr =
        runExperiment(DesignPoint::Qvr, spec())
            .meanTransmittedBytes();
    EXPECT_LT(qvr, remote * 0.6);
}

TEST_P(EnvironmentSweep, QvrNeverSlowerThanRemoteOnly)
{
    const double remote =
        runExperiment(DesignPoint::Remote, spec()).meanMtp();
    const double qvr =
        runExperiment(DesignPoint::Qvr, spec()).meanMtp();
    EXPECT_LT(qvr, remote * 1.05);
}

TEST_P(EnvironmentSweep, LatencyBalanceReached)
{
    // Universal convergence property: in steady state the mean
    // remote/local ratio sits in a bounded band around 1 for every
    // environment (the fixed remote overheads keep it >= ~0.8).
    const PipelineResult r = runExperiment(DesignPoint::Qvr, spec());
    double ratio_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 60; i < r.frames.size(); i++) {
        const auto &f = r.frames[i];
        if (f.tLocalRender > 0.0) {
            ratio_sum += f.tRemoteBranch / f.tLocalRender;
            n++;
        }
    }
    ASSERT_GT(n, 0u);
    const double mean_ratio = ratio_sum / static_cast<double>(n);
    EXPECT_GT(mean_ratio, 0.3) << "local-dominated imbalance";
    EXPECT_LT(mean_ratio, 4.0) << "remote-dominated imbalance";
}

TEST_P(EnvironmentSweep, DeterministicAcrossRuns)
{
    const PipelineResult a = runExperiment(DesignPoint::Qvr, spec());
    const PipelineResult b = runExperiment(DesignPoint::Qvr, spec());
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); i += 17) {
        EXPECT_DOUBLE_EQ(a.frames[i].mtpLatency,
                         b.frames[i].mtpLatency);
        EXPECT_DOUBLE_EQ(a.frames[i].e1, b.frames[i].e1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnvironmentSweep,
    ::testing::Combine(::testing::Values("Doom3-H", "Doom3-L",
                                         "HL2-H", "HL2-L", "GRID",
                                         "UT3", "Wolf"),
                       ::testing::Values("Wi-Fi", "4G LTE",
                                         "Early 5G")),
    [](const ::testing::TestParamInfo<Params> &param_info) {
        std::string name = std::get<0>(param_info.param);
        name += "_";
        name += std::get<1>(param_info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

}  // namespace
}  // namespace qvr::core
