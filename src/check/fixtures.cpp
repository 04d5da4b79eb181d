#include "check/fixtures.hpp"

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace bt::check {

namespace {

using simt::GeometryStyle;
using simt::LaunchConfig;
using simt::WorkItem;

bool
hasKind(const Report& report, FindingKind kind)
{
    for (const Finding& f : report.findings)
        if (f.kind == kind)
            return true;
    return false;
}

/** Every thread of every block writes element 0. */
Report
writeWriteRace()
{
    Checker checker;
    std::vector<std::uint32_t> data(1, 0);
    {
        const simt::KernelScope scope(checker, "fixture.ww_race");
        auto out = simt::tracked(std::span<std::uint32_t>(data), checker,
                                 "out");
        simt::launchChecked(
            LaunchConfig{4, 8},
            [&](const WorkItem& item) {
                out[0] = static_cast<std::uint32_t>(item.globalId());
            },
            checker, 1, GeometryStyle::GridStride);
    }
    return checker.takeReport();
}

/** Thread i writes slot i but reads its neighbour's slot unsynchronized. */
Report
readWriteRace()
{
    Checker checker;
    constexpr std::int64_t n = 32;
    std::vector<std::uint32_t> data(n);
    std::iota(data.begin(), data.end(), 0u);
    {
        const simt::KernelScope scope(checker, "fixture.rw_race");
        auto buf = simt::tracked(std::span<std::uint32_t>(data), checker,
                                 "buf");
        simt::launchChecked(
            LaunchConfig{4, 8},
            [&](const WorkItem& item) {
                const auto i
                    = static_cast<std::size_t>(item.globalId());
                const std::uint32_t neighbour = buf[(i + 1) % n];
                buf[i] = neighbour + 1;
            },
            checker, n, GeometryStyle::Direct);
    }
    return checker.takeReport();
}

/** Grid-stride loop reads one element past the end. */
Report
oobRead()
{
    Checker checker;
    constexpr std::int64_t n = 64;
    std::vector<std::uint32_t> in(n, 1);
    std::vector<std::uint32_t> out(n, 0);
    {
        const simt::KernelScope scope(checker, "fixture.oob_read");
        auto tin = simt::tracked(std::span<const std::uint32_t>(in),
                                 checker, "in");
        auto tout = simt::tracked(std::span<std::uint32_t>(out), checker,
                                  "out");
        simt::launchChecked(
            LaunchConfig{2, 8},
            [&](const WorkItem& item) {
                simt::gridStride(item, n, [&](std::int64_t i) {
                    // Off-by-one stencil: i+1 == n falls off the end.
                    const auto s = static_cast<std::size_t>(i);
                    tout[s] = tin[s] + tin[s + 1];
                });
            },
            checker, n, GeometryStyle::GridStride);
    }
    return checker.takeReport();
}

/** Grid-stride loop writes one element past the end. */
Report
oobWrite()
{
    Checker checker;
    constexpr std::int64_t n = 64;
    std::vector<std::uint32_t> out(n, 0);
    {
        const simt::KernelScope scope(checker, "fixture.oob_write");
        auto tout = simt::tracked(std::span<std::uint32_t>(out), checker,
                                  "out");
        simt::launchChecked(
            LaunchConfig{2, 8},
            [&](const WorkItem& item) {
                simt::gridStride(item, n, [&](std::int64_t i) {
                    // Off-by-one scatter: element n is written.
                    tout[static_cast<std::size_t>(i) + 1]
                        = static_cast<std::uint32_t>(i);
                });
            },
            checker, n, GeometryStyle::GridStride);
    }
    return checker.takeReport();
}

/** Direct-indexed kernel launched with fewer threads than items. */
Report
underCoveringLaunch()
{
    Checker checker;
    constexpr std::int64_t n = 64;
    std::vector<std::uint32_t> out(n, 0);
    {
        const simt::KernelScope scope(checker, "fixture.under_cover");
        auto tout = simt::tracked(std::span<std::uint32_t>(out), checker,
                                  "out");
        simt::launchChecked(
            LaunchConfig{1, 16}, // 16 threads for 64 items, no stride
            [&](const WorkItem& item) {
                const std::int64_t gid = item.globalId();
                if (gid < n)
                    tout[static_cast<std::size_t>(gid)]
                        = static_cast<std::uint32_t>(gid);
            },
            checker, n, GeometryStyle::Direct);
    }
    return checker.takeReport();
}

/** Grid-stride kernel launched with far more blocks than items need. */
Report
deadBlocks()
{
    Checker checker;
    constexpr std::int64_t n = 10;
    std::vector<std::uint32_t> out(n, 0);
    {
        const simt::KernelScope scope(checker, "fixture.dead_blocks");
        auto tout = simt::tracked(std::span<std::uint32_t>(out), checker,
                                  "out");
        simt::launchChecked(
            LaunchConfig{16, 64}, // 1024 threads for 10 items
            [&](const WorkItem& item) {
                simt::gridStride(item, n, [&](std::int64_t i) {
                    tout[static_cast<std::size_t>(i)]
                        = static_cast<std::uint32_t>(i);
                });
            },
            checker, n, GeometryStyle::GridStride);
    }
    return checker.takeReport();
}

/**
 * Race-free per-element writes whose *values* depend on block order via
 * an untracked host-side counter - invisible to the shadow tracker,
 * caught only by the shuffled-rerun output diff.
 */
Report
orderDependence()
{
    Checker checker;
    constexpr std::int64_t n = 32;
    std::vector<std::uint32_t> out(n, 0);
    {
        const simt::KernelScope scope(checker, "fixture.order_dep");
        auto tout = simt::tracked(std::span<std::uint32_t>(out), checker,
                                  "out");
        std::uint32_t ticket = 0;
        simt::launchChecked(
            LaunchConfig{4, 8},
            [&](const WorkItem& item) {
                tout[static_cast<std::size_t>(item.globalId())]
                    = ticket++;
            },
            checker, n, GeometryStyle::Direct);
    }
    return checker.takeReport();
}

FixtureResult
evaluate(std::string name, FindingKind expected, const Report& report)
{
    FixtureResult result;
    result.name = std::move(name);
    result.expected = expected;
    result.flagged = hasKind(report, expected);
    result.totalFindings = report.findings.size();
    return result;
}

} // namespace

std::vector<FixtureResult>
runSeededDefects()
{
    std::vector<FixtureResult> results;
    results.push_back(evaluate("ww_race", FindingKind::WriteWriteRace,
                               writeWriteRace()));
    results.push_back(evaluate("rw_race", FindingKind::ReadWriteRace,
                               readWriteRace()));
    results.push_back(
        evaluate("oob_read", FindingKind::OobRead, oobRead()));
    results.push_back(
        evaluate("oob_write", FindingKind::OobWrite, oobWrite()));
    results.push_back(evaluate("under_cover",
                               FindingKind::UnderCoveringLaunch,
                               underCoveringLaunch()));
    results.push_back(evaluate("dead_blocks", FindingKind::DeadBlocks,
                               deadBlocks()));
    results.push_back(evaluate("order_dep", FindingKind::OrderDependence,
                               orderDependence()));
    return results;
}

} // namespace bt::check
