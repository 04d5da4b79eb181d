/**
 * @file
 * Unit tests for bt::check, the compute-sanitizer for the SIMT kernel
 * layer: the seeded-defect fixtures (negative control), clean runs of
 * the device collectives and whole example applications (positive
 * control), finding details (kernel name, buffer, element, thread
 * pairs), geometry lint, report JSON shape, and merge.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <span>
#include <vector>

#include "apps/app_check.hpp"
#include "check/checker.hpp"
#include "check/fixtures.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "kernels/exec.hpp"
#include "kernels/prefix_sum.hpp"
#include "kernels/sort.hpp"
#include "kernels/unique.hpp"
#include "simt/algorithms.hpp"
#include "simt/instrument.hpp"

namespace bt {
namespace {

// ---------------------------------------------------------------------
// Negative control: every seeded defect must be flagged.

TEST(Fixtures, AllSeededDefectsFlagged)
{
    const auto results = check::runSeededDefects();
    ASSERT_FALSE(results.empty());
    for (const auto& r : results)
        EXPECT_TRUE(r.flagged)
            << r.name << " expected "
            << check::findingKindName(r.expected) << " but got "
            << r.totalFindings << " findings of other kinds";
}

TEST(Fixtures, CoverEveryDefectCategory)
{
    const auto results = check::runSeededDefects();
    auto has = [&](check::FindingKind kind) {
        for (const auto& r : results)
            if (r.expected == kind)
                return true;
        return false;
    };
    EXPECT_TRUE(has(check::FindingKind::WriteWriteRace));
    EXPECT_TRUE(has(check::FindingKind::ReadWriteRace));
    EXPECT_TRUE(has(check::FindingKind::OobRead));
    EXPECT_TRUE(has(check::FindingKind::OobWrite));
    EXPECT_TRUE(has(check::FindingKind::UnderCoveringLaunch));
    EXPECT_TRUE(has(check::FindingKind::DeadBlocks));
    EXPECT_TRUE(has(check::FindingKind::OrderDependence));
}

// ---------------------------------------------------------------------
// Positive control: the in-tree device collectives are clean, and a
// checked run computes exactly what the raw run computes.

TEST(Checker, ScanCleanAndBitIdentical)
{
    std::vector<std::uint32_t> in(1000);
    Rng rng(42);
    for (auto& v : in)
        v = static_cast<std::uint32_t>(rng.nextBounded(100));

    std::vector<std::uint32_t> raw_out(in.size(), 0);
    const std::uint64_t raw_total = simt::deviceExclusiveScan(
        std::span<const std::uint32_t>(in), std::span(raw_out));

    std::vector<std::uint32_t> checked_out(in.size(), 0);
    check::Checker checker;
    const std::uint64_t checked_total = kernels::exclusiveScanGpu(
        in, checked_out, &checker);
    const auto report = checker.takeReport();

    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(raw_total, checked_total);
    EXPECT_EQ(raw_out, checked_out);
    EXPECT_GE(report.stats.kernels, 1);
    EXPECT_GE(report.stats.launches, 1);
    EXPECT_GT(report.stats.accesses, 0);
    // Multi-block launches get shuffled re-executions.
    EXPECT_GT(report.stats.reruns, 0);
}

TEST(Checker, InPlaceScanAliasesOntoOneRegionCleanly)
{
    std::vector<std::uint32_t> buf(500, 1);
    std::vector<std::uint32_t> expect(buf.size());
    std::iota(expect.begin(), expect.end(), 0u);

    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "inplace_scan");
        auto t = simt::tracked(std::span(buf), checker, "buf");
        simt::deviceExclusiveScan(
            simt::TrackedSpan<const std::uint32_t>(t), t, checker);
    }
    const auto report = checker.takeReport();
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(buf, expect);
}

TEST(Checker, RadixSortCleanAndSorted)
{
    std::vector<std::uint32_t> keys(2000);
    Rng rng(7);
    for (auto& k : keys)
        k = static_cast<std::uint32_t>(rng.nextU64());
    std::vector<std::uint32_t> scratch(keys.size());

    check::Checker checker;
    kernels::radixSortGpu(keys, scratch, &checker);
    const auto report = checker.takeReport();

    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Checker, UniqueCleanAndCorrect)
{
    std::vector<std::uint32_t> in = {1, 1, 2, 5, 5, 5, 9, 10, 10};
    std::vector<std::uint32_t> out(in.size(), 0);
    std::vector<std::uint32_t> flags(in.size(), 0);

    check::Checker checker;
    const std::int64_t k
        = kernels::uniqueGpu(in, out, flags, &checker);
    const auto report = checker.takeReport();

    EXPECT_TRUE(report.clean()) << report.summary();
    ASSERT_EQ(k, 5);
    EXPECT_EQ((std::vector<std::uint32_t>{out.begin(), out.begin() + 5}),
              (std::vector<std::uint32_t>{1, 2, 5, 9, 10}));
}

// ---------------------------------------------------------------------
// Finding details.

TEST(Checker, OobReadCarriesKernelBufferAndElement)
{
    constexpr std::int64_t n = 64;
    std::vector<std::uint32_t> data(n, 3);
    std::vector<std::uint32_t> out(n, 0);

    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "stencil");
        auto tin = simt::tracked(
            std::span<const std::uint32_t>(data), checker, "in");
        auto tout = simt::tracked(std::span(out), checker, "result");
        kernels::GpuExec exec;
        exec.observer = &checker;
        exec.forEach(n, [&](std::int64_t i) {
            // Deliberate off-by-one: reads one past the end at i==n-1.
            tout[static_cast<std::size_t>(i)]
                = tin[static_cast<std::size_t>(i + 1)];
        });
    }
    const auto report = checker.takeReport();

    ASSERT_FALSE(report.clean());
    const auto& f = report.findings.front();
    EXPECT_EQ(f.kind, check::FindingKind::OobRead);
    EXPECT_EQ(f.kernel, "stencil");
    EXPECT_EQ(f.buffer, "in");
    EXPECT_EQ(f.element, n); // first out-of-bounds index
    EXPECT_GE(f.first.block, 0);
    // The quarantined read yielded 0, not garbage.
    EXPECT_EQ(out[static_cast<std::size_t>(n - 1)], 0u);
}

TEST(Checker, WriteWriteRaceNamesBothThreads)
{
    std::vector<std::uint32_t> out(4, 0);
    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "collide");
        auto t = simt::tracked(std::span(out), checker, "out");
        simt::launchChecked(
            simt::LaunchConfig{2, 8},
            [&](const simt::WorkItem& item) {
                t[0] = static_cast<std::uint32_t>(item.globalId());
            },
            checker, 16, simt::GeometryStyle::Direct);
    }
    const auto report = checker.takeReport();

    ASSERT_FALSE(report.findings.empty());
    const auto& f = report.findings.front();
    EXPECT_EQ(f.kind, check::FindingKind::WriteWriteRace);
    EXPECT_EQ(f.buffer, "out");
    EXPECT_EQ(f.element, 0);
    // Two distinct SIMT threads are identified.
    EXPECT_TRUE(f.first.block != f.second.block
                || f.first.thread != f.second.thread);
    EXPECT_GT(f.count, 1); // folded repeats, not one finding per pair
}

TEST(Checker, UnderCoveringDirectLaunchFlagged)
{
    std::vector<std::uint32_t> out(64, 0);
    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "direct");
        auto t = simt::tracked(std::span(out), checker, "out");
        // 16 threads for 64 items and no grid-stride loop.
        simt::launchChecked(
            simt::LaunchConfig{1, 16},
            [&](const simt::WorkItem& item) {
                const auto gid
                    = static_cast<std::size_t>(item.globalId());
                if (gid < 64)
                    t[gid] = 1u;
            },
            checker, 64, simt::GeometryStyle::Direct);
    }
    const auto report = checker.takeReport();
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings.front().kind,
              check::FindingKind::UnderCoveringLaunch);
}

TEST(Checker, CrossLaunchReuseIsLegal)
{
    // The same element written by different threads in *different*
    // launches is not a race: launches are device-wide barriers.
    std::vector<std::uint32_t> buf(8, 0);
    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "two_launches");
        auto t = simt::tracked(std::span(buf), checker, "buf");
        kernels::GpuExec exec;
        exec.observer = &checker;
        exec.forEach(8, [&](std::int64_t i) {
            t[static_cast<std::size_t>(i)] = 1u;
        });
        exec.forEach(8, [&](std::int64_t i) {
            t[static_cast<std::size_t>(7 - i)] += 1u;
        });
    }
    const auto report = checker.takeReport();
    EXPECT_TRUE(report.clean()) << report.summary();
    for (const auto v : buf)
        EXPECT_EQ(v, 2u);
}

// ---------------------------------------------------------------------
// Whole applications, validated: every in-tree device kernel runs
// clean under the checker.

TEST(AppCheck, DenseAlexNetClean)
{
    const auto report = apps::checkScaledApp("dense");
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.stats.kernels, 9); // 4 conv + 4 pool + linear
}

TEST(AppCheck, SparseAlexNetClean)
{
    const auto report = apps::checkScaledApp("sparse");
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_GT(report.stats.kernels, 0);
}

TEST(AppCheck, OctreePipelineClean)
{
    // Exercises morton, radix sort, unique (in-place scan aliasing),
    // radix tree, edge counts, prefix sum, and the atomic child-mask
    // build - with the structural validator on the checked outputs.
    const auto report = apps::checkScaledApp("octree");
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.stats.kernels, 7);
    EXPECT_GT(report.stats.reruns, 0);
}

// The sweep bt_explorer --check runs, counted exactly: the checker's
// rerun count and every kernel's launches, regions and accesses, with
// no finding under the shuffled reruns.
TEST(CheckedSweep, ScaledAppReportsArePinned)
{
    struct Pin
    {
        const char* app;
        int kernels;
        int launches;
        int reruns;
        std::int64_t regions;
        std::int64_t accesses;
    };
    for (const Pin& pin : {Pin{"dense", 9, 9, 16, 28, 116541972},
                           Pin{"sparse", 18, 18, 32, 72, 19852540},
                           Pin{"octree", 7, 25, 38, 47, 2717452}}) {
        const auto report = apps::checkScaledApp(pin.app);
        EXPECT_EQ(report.stats.kernels, pin.kernels) << pin.app;
        EXPECT_EQ(report.stats.launches, pin.launches) << pin.app;
        EXPECT_EQ(report.stats.reruns, pin.reruns) << pin.app;
        EXPECT_EQ(report.stats.regions, pin.regions) << pin.app;
        EXPECT_EQ(report.stats.accesses, pin.accesses) << pin.app;
        EXPECT_TRUE(report.findings.empty()) << report.summary();
        EXPECT_EQ(report.suppressed, 0) << pin.app;
    }
}

// ---------------------------------------------------------------------
// Report surface.

TEST(Report, JsonShape)
{
    std::vector<std::uint32_t> out(4, 0);
    check::Checker checker;
    {
        const simt::KernelScope scope(checker, "collide");
        auto t = simt::tracked(std::span(out), checker, "na\"me");
        simt::launchChecked(
            simt::LaunchConfig{2, 8},
            [&](const simt::WorkItem& item) {
                t[0] = static_cast<std::uint32_t>(item.globalId());
            },
            checker, 16, simt::GeometryStyle::Direct);
    }
    const auto report = checker.takeReport();

    std::ostringstream os;
    report.writeJson(os);
    const auto doc = json::parse(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_FALSE(doc->at("clean").boolean);
    EXPECT_EQ(doc->at("stats").at("kernels").number, 1.0);
    const auto& finding = doc->at("findings").items.at(0);
    EXPECT_EQ(finding.at("kind").text, "write_write_race");
    EXPECT_EQ(finding.at("kernel").text, "collide");
    // The hostile buffer name comes back as it went in.
    EXPECT_EQ(finding.at("buffer").text, "na\"me");

    EXPECT_FALSE(report.summary().empty());
    EXPECT_FALSE(report.findings.front().toString().empty());
}

TEST(Report, MergeAccumulatesFindingsAndStats)
{
    check::Report a;
    a.stats.kernels = 2;
    a.stats.accesses = 100;
    a.findings.push_back({});
    check::Report b;
    b.stats.kernels = 3;
    b.stats.accesses = 50;
    b.findings.push_back({});
    b.suppressed = 1;

    a.merge(std::move(b));
    EXPECT_EQ(a.stats.kernels, 5);
    EXPECT_EQ(a.stats.accesses, 150);
    EXPECT_EQ(a.findings.size(), 2u);
    EXPECT_EQ(a.suppressed, 1);
    EXPECT_FALSE(a.clean());
}

TEST(Report, FindingKindNamesAreStable)
{
    EXPECT_EQ(check::findingKindName(
                  check::FindingKind::WriteWriteRace),
              "write_write_race");
    EXPECT_EQ(check::findingKindName(check::FindingKind::OobWrite),
              "oob_write");
    EXPECT_EQ(check::findingKindName(
                  check::FindingKind::OrderDependence),
              "order_dependence");
    EXPECT_EQ(check::findingKindName(
                  check::FindingKind::ValidationFailure),
              "validation_failure");
}

} // namespace
} // namespace bt
