/**
 * @file
 * Prints the sim-output digest (see sim_digest.hpp).  Regenerate the
 * committed file, for a deliberate model change only, with
 *
 *   build/tests/sim_digest > tests/data/sim_digest.txt
 */

#include <iostream>

#include "integration/sim_digest.hpp"

int
main()
{
    qvr::digest::writeDigest(std::cout, qvr::digest::simulateDigestRuns());
    return std::cout ? 0 : 1;
}
