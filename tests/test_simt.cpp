/**
 * @file
 * Unit tests for the SIMT execution layer: launch coverage, grid-stride
 * iteration, block-order independence, and the device-wide cooperative
 * algorithms (scan, radix sort) against references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "simt/algorithms.hpp"
#include "simt/simt.hpp"

namespace bt::simt {
namespace {

TEST(LaunchConfig, CoverRoundsUp)
{
    const auto cfg = LaunchConfig::cover(100, 32, 1024);
    EXPECT_EQ(cfg.blockDim, 32);
    EXPECT_EQ(cfg.gridDim, 4);
    EXPECT_GE(cfg.totalThreads(), 100);
}

TEST(LaunchConfig, CoverClampsGrid)
{
    const auto cfg = LaunchConfig::cover(1 << 20, 64, 16);
    EXPECT_EQ(cfg.gridDim, 16);
}

TEST(LaunchConfig, CoverHandlesZero)
{
    const auto cfg = LaunchConfig::cover(0, 64, 16);
    EXPECT_EQ(cfg.gridDim, 1);
}

TEST(LaunchConfig, CoverHugeElementCountDoesNotOverflow)
{
    // n + block - 1 overflows int64 for n near the maximum; cover must
    // still clamp to max_grid instead of producing a negative grid.
    const auto cfg = LaunchConfig::cover(
        std::numeric_limits<std::int64_t>::max(), 64, 1024);
    EXPECT_EQ(cfg.blockDim, 64);
    EXPECT_EQ(cfg.gridDim, 1024);

    const auto near_max = LaunchConfig::cover(
        std::numeric_limits<std::int64_t>::max() - 1, 256, 1 << 20);
    EXPECT_EQ(near_max.gridDim, 1 << 20);
}

TEST(Launch, EveryThreadRunsOnce)
{
    const LaunchConfig cfg{7, 13};
    std::vector<int> hits(static_cast<std::size_t>(cfg.totalThreads()),
                          0);
    launch(cfg, [&](const WorkItem& item) {
        ++hits[static_cast<std::size_t>(item.globalId())];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Launch, WorkItemGeometry)
{
    const LaunchConfig cfg{3, 4};
    launch(cfg, [&](const WorkItem& item) {
        EXPECT_EQ(item.gridDim, 3);
        EXPECT_EQ(item.blockDim, 4);
        EXPECT_GE(item.blockIdx, 0);
        EXPECT_LT(item.blockIdx, 3);
        EXPECT_GE(item.threadIdx, 0);
        EXPECT_LT(item.threadIdx, 4);
        EXPECT_EQ(item.globalId(),
                  item.blockIdx * 4 + item.threadIdx);
        EXPECT_EQ(item.globalSize(), 12);
    });
}

TEST(Launch, GridStrideCoversRange)
{
    const std::int64_t n = 1000;
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    launch(LaunchConfig{4, 32}, [&](const WorkItem& item) {
        gridStride(item, n, [&](std::int64_t i) {
            ++hits[static_cast<std::size_t>(i)];
        });
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Launch, ShuffledMatchesSerialForRaceFreeKernel)
{
    const std::int64_t n = 513;
    std::vector<std::int64_t> a(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> b(static_cast<std::size_t>(n), 0);
    const auto cfg = LaunchConfig::cover(n, 32, 8);
    launch(cfg, [&](const WorkItem& item) {
        gridStride(item, n, [&](std::int64_t i) {
            a[static_cast<std::size_t>(i)] = i * i;
        });
    });
    launchShuffled(cfg,
                   [&](const WorkItem& item) {
                       gridStride(item, n, [&](std::int64_t i) {
                           b[static_cast<std::size_t>(i)] = i * i;
                       });
                   },
                   12345);
    EXPECT_EQ(a, b);
}

class DeviceAlgoSizes : public ::testing::TestWithParam<std::int64_t>
{
  protected:
    std::vector<std::uint32_t>
    randomKeys(std::int64_t n, std::uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<std::uint32_t> keys(static_cast<std::size_t>(n));
        for (auto& k : keys)
            k = static_cast<std::uint32_t>(rng.nextU64());
        return keys;
    }
};

TEST_P(DeviceAlgoSizes, ExclusiveScanMatchesReference)
{
    const auto in = randomKeys(GetParam(), 2);
    // Use small values so 32-bit prefix sums cannot overflow.
    std::vector<std::uint32_t> small(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        small[i] = in[i] % 16;
    std::vector<std::uint32_t> out(in.size(), 0);
    const std::uint64_t total = deviceExclusiveScan(small, out);

    std::uint64_t run = 0;
    for (std::size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(out[i], run) << "at " << i;
        run += small[i];
    }
    EXPECT_EQ(total, run);
}

TEST_P(DeviceAlgoSizes, ScanInPlaceAliasing)
{
    auto data = randomKeys(GetParam(), 3);
    for (auto& v : data)
        v %= 8;
    const auto copy = data;
    deviceExclusiveScan(data, data);
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < copy.size(); ++i) {
        EXPECT_EQ(data[i], run);
        run += copy[i];
    }
}

TEST_P(DeviceAlgoSizes, RadixSortSortsAndPreservesMultiset)
{
    auto keys = randomKeys(GetParam(), 5);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    std::vector<std::uint32_t> scratch(keys.size());
    deviceRadixSort(keys, scratch);
    EXPECT_EQ(keys, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceAlgoSizes,
                         ::testing::Values(0, 1, 2, 63, 64, 1000, 4096,
                                           100000));

TEST(DeviceRadixPass, StableWithinDigit)
{
    // Keys sharing the low byte must keep their relative order after a
    // pass on shift 0. Encode original position in the high bits.
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 500; ++i)
        keys.push_back((i << 8) | (i % 3));
    std::vector<std::uint32_t> out(keys.size());
    deviceRadixPass(keys, out, 0, 8);
    // Within each digit class, the high bits must increase.
    std::uint32_t last_seen[3] = {0, 0, 0};
    for (auto k : keys)
        (void)k;
    for (auto k : out) {
        const std::uint32_t digit = k & 0xFF;
        ASSERT_LT(digit, 3u);
        EXPECT_GE(k >> 8, last_seen[digit]);
        last_seen[digit] = k >> 8;
    }
}

TEST(DeviceRadixSort, AlreadySortedAndReverse)
{
    std::vector<std::uint32_t> asc(1000);
    std::iota(asc.begin(), asc.end(), 0u);
    auto desc = asc;
    std::reverse(desc.begin(), desc.end());
    std::vector<std::uint32_t> scratch(asc.size());

    auto a = asc;
    deviceRadixSort(a, scratch);
    EXPECT_EQ(a, asc);

    deviceRadixSort(desc, scratch);
    EXPECT_EQ(desc, asc);
}

} // namespace
} // namespace bt::simt
