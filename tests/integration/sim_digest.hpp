/**
 * @file
 * Sim-output digest: reduced versions of the benchmark's three
 * simulation workloads (perfbench's single-user grid, a closed-loop
 * served fleet and an open-loop MMPP episode), run through the
 * library at seeds 1 and 7 and reduced to named fields.
 *
 * Each run records its summary metrics in hexfloat plus one 64-bit
 * FNV-1a hash per per-frame field, so a host-only change can be shown
 * to leave every simulated number bit-identical, and a mismatch names
 * the run and the field that moved.  `test_sim_digest` compares a
 * fresh digest with tests/data/sim_digest.txt; `sim_digest` prints one
 * (regenerate the file with `build/tests/sim_digest >
 * tests/data/sim_digest.txt`, only for a deliberate model change).
 */

#ifndef QVR_TESTS_SIM_DIGEST_HPP
#define QVR_TESTS_SIM_DIGEST_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace qvr::digest
{

/** One named value of a run, already formatted (hexfloat or hex). */
struct Field
{
    std::string name;
    std::string value;
};

/** One simulated run and its fields, in a fixed order. */
struct Run
{
    std::string name;
    std::vector<Field> fields;
};

/** Every digest run, at seeds 1 and 7. */
std::vector<Run> simulateDigestRuns();

/** One "<run> <field> <value>" line per field. */
void writeDigest(std::ostream &os, const std::vector<Run> &runs);

/** Inverse of writeDigest. */
std::vector<Run> readDigest(std::istream &is);

}  // namespace qvr::digest

#endif  // QVR_TESTS_SIM_DIGEST_HPP
