/**
 * @file
 * Seeded-defect fixtures for bt::check: small kernels that each contain
 * exactly one deliberate bug (a write/write race, a read/write race, an
 * OOB read, an OOB write, an under-covering launch, dead blocks, and a
 * block-order dependence). The checker must flag every one of them -
 * this is the negative control proving the sanitizer actually fires,
 * run by tests and by `bt_explorer --check-fixtures` in CI.
 */

#ifndef BT_CHECK_FIXTURES_HPP
#define BT_CHECK_FIXTURES_HPP

#include <string>
#include <vector>

#include "check/checker.hpp"

namespace bt::check {

struct FixtureResult
{
    std::string name;
    FindingKind expected{};
    bool flagged = false;         ///< expected kind was reported
    std::size_t totalFindings = 0;
};

/**
 * Run every seeded-defect kernel under a fresh Checker; each result
 * says whether its expected finding kind was reported.
 */
std::vector<FixtureResult>
runSeededDefects();

} // namespace bt::check

#endif // BT_CHECK_FIXTURES_HPP
