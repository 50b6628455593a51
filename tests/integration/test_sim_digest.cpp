/**
 * @file
 * Sim-output digest gate: the reduced benchmark workloads must
 * reproduce tests/data/sim_digest.txt field for field.  A host-only
 * change (a cache, a faster census) passes it unchanged; a model
 * change fails it, naming each run and the first field that moved,
 * and re-pins the file with build/tests/sim_digest (sim_digest.hpp).
 */

#include <gtest/gtest.h>

#include <fstream>

#include "integration/sim_digest.hpp"

namespace qvr::digest
{
namespace
{

TEST(SimDigest, MatchesCommittedFile)
{
    std::ifstream file(QVR_SIM_DIGEST_FILE);
    ASSERT_TRUE(file) << "cannot open " << QVR_SIM_DIGEST_FILE;
    const std::vector<digest::Run> expected = readDigest(file);
    const std::vector<digest::Run> actual = simulateDigestRuns();
    ASSERT_EQ(actual.size(), expected.size()) << "run count differs";

    for (std::size_t i = 0; i < actual.size(); i++) {
        const digest::Run &want = expected[i];
        const digest::Run &got = actual[i];
        ASSERT_EQ(got.name, want.name) << "run " << i << " differs";
        ASSERT_EQ(got.fields.size(), want.fields.size())
            << got.name << ": field count differs";
        for (std::size_t k = 0; k < got.fields.size(); k++) {
            const Field &w = want.fields[k];
            const Field &g = got.fields[k];
            if (g.name != w.name || g.value != w.value) {
                ADD_FAILURE() << got.name << ": first differing field "
                              << w.name << ": expected " << w.value
                              << ", got " << g.name << ' ' << g.value;
                break;
            }
        }
    }
}

}  // namespace
}  // namespace qvr::digest
