/**
 * @file
 * Dispatch equivalence tests: every device kernel must produce
 * bit-identical output no matter which GpuExec dispatch strategy runs
 * it — templated serial (the default), pooled launches over worker
 * teams of size 1, 2, and 8, and checked execution, which reruns every
 * launch under shuffled block orders. This is the contract that lets
 * the scheduler and the checker pick dispatch strategies freely.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "common/rng.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/image.hpp"
#include "kernels/linear.hpp"
#include "kernels/morton.hpp"
#include "kernels/octree.hpp"
#include "kernels/pooling.hpp"
#include "kernels/prefix_sum.hpp"
#include "kernels/radix_tree.hpp"
#include "kernels/sparse_conv.hpp"
#include "sched/thread_pool.hpp"

namespace bt::kernels {
namespace {

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.nextRange(-1.0, 1.0));
    return v;
}

template <typename T>
void
expectBitIdentical(const std::vector<T>& golden, const std::vector<T>& got,
                   const std::string& label)
{
    ASSERT_EQ(golden.size(), got.size()) << label;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(0,
                  std::memcmp(&golden[i], &got[i], sizeof(T)))
            << label << " diverges at element " << i;
    }
}

/**
 * Run @p run under every dispatch strategy and require bit-identical
 * results against the templated serial baseline. @p run maps a GpuExec
 * to the kernel's flattened output. The checked run reruns every launch
 * under shuffled block orders and flags any output that depends on the
 * block order.
 */
template <typename Run>
void
expectDispatchInvariant(Run&& run)
{
    const GpuExec baseline;
    const auto golden = run(baseline);

    {
        check::Checker checker;
        expectBitIdentical(golden, run(GpuExec{.observer = &checker}),
                           "checked");
        const check::Report& report = checker.report();
        EXPECT_TRUE(report.clean()) << report.summary();
        EXPECT_GT(report.stats.reruns, 0);
    }
    for (int team : {1, 2, 8}) {
        sched::ThreadPool pool(team);
        GpuExec exec;
        exec.pool = &pool;
        expectBitIdentical(golden, run(exec),
                           "pooled/" + std::to_string(team));
    }
}

TEST(DispatchEquivalence, Conv2d)
{
    const ConvShape shape{Shape3{5, 19, 23}, 7};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 101);
    const auto w = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 102);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                103);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(static_cast<std::size_t>(
            shape.out().elems()));
        conv2dGpu(exec, shape, in, w, b, out);
        return out;
    });
}

TEST(DispatchEquivalence, SparseConv)
{
    const ConvShape shape{Shape3{6, 17, 13}, 9};
    const auto dense = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 104);
    const CsrMatrix csr = pruneToCsr(dense, shape.outC, shape.in.c * 9,
                                     0.4);
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 105);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                106);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(static_cast<std::size_t>(
            shape.out().elems()));
        sparseConvGpu(exec, shape, in, csr, b, out);
        return out;
    });
}

TEST(DispatchEquivalence, Maxpool)
{
    const Shape3 shape{4, 30, 26};
    const auto in = randomFloats(static_cast<std::size_t>(shape.elems()),
                                 107);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(static_cast<std::size_t>(
            pooledShape(shape).elems()));
        maxpoolGpu(exec, shape, in, out);
        return out;
    });
}

TEST(DispatchEquivalence, Linear)
{
    const int in_features = 37;
    const int out_features = 211;
    const auto in = randomFloats(static_cast<std::size_t>(in_features),
                                 108);
    const auto w = randomFloats(static_cast<std::size_t>(in_features)
                                    * out_features,
                                109);
    const auto b = randomFloats(static_cast<std::size_t>(out_features),
                                110);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(static_cast<std::size_t>(out_features));
        linearGpu(exec, in_features, out_features, in, w, b, out);
        return out;
    });
}

TEST(DispatchEquivalence, ImagePipelineKernels)
{
    const ImageShape shape{47, 31};
    const auto n = static_cast<std::size_t>(shape.pixels());
    const auto img = randomFloats(n, 111);

    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(n);
        blurHGpu(exec, shape, img, out);
        return out;
    });
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> out(n);
        blurVGpu(exec, shape, img, out);
        return out;
    });
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> gx(n);
        std::vector<float> gy(n);
        sobelGpu(exec, shape, img, gx, gy);
        gx.insert(gx.end(), gy.begin(), gy.end());
        return gx;
    });

    std::vector<float> gx(n);
    std::vector<float> gy(n);
    sobelGpu(GpuExec{}, shape, img, gx, gy);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<float> response(n);
        harrisGpu(exec, shape, gx, gy, response);
        return response;
    });

    std::vector<float> response(n);
    harrisGpu(GpuExec{}, shape, gx, gy, response);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<std::uint32_t> flags(n);
        nmsGpu(exec, shape, response, 0.01f, flags);
        return flags;
    });

    std::vector<std::uint32_t> corners;
    for (std::size_t i = 0; i < n; i += 7)
        corners.push_back(static_cast<std::uint32_t>(i));
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<std::uint32_t> desc(
            corners.size() * static_cast<std::size_t>(kDescriptorWords));
        briefGpu(exec, shape, img, corners,
                 static_cast<std::int64_t>(corners.size()), desc);
        return desc;
    });
}

TEST(DispatchEquivalence, MortonEncode)
{
    const std::int64_t n = 1500;
    Rng rng(112);
    std::vector<float> pts(static_cast<std::size_t>(3 * n));
    for (auto& p : pts)
        p = static_cast<float>(rng.nextRange(0.0, 1.0));
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<std::uint32_t> codes(static_cast<std::size_t>(n));
        mortonEncodeGpu(exec, pts, codes, n);
        return codes;
    });
}

/** Sorted unique Morton codes for the tree-construction kernels. */
std::vector<std::uint32_t>
uniqueCodes(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(n));
    for (auto& c : codes)
        c = static_cast<std::uint32_t>(rng.nextBounded(1u << 30));
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    return codes;
}

struct RadixTreeStorage
{
    std::vector<std::int32_t> left, right, parent, leafParent, prefixLen,
        first, last;

    explicit RadixTreeStorage(std::int64_t k)
        : left(static_cast<std::size_t>(k - 1)),
          right(static_cast<std::size_t>(k - 1)),
          parent(static_cast<std::size_t>(k - 1)),
          leafParent(static_cast<std::size_t>(k)),
          prefixLen(static_cast<std::size_t>(k - 1)),
          first(static_cast<std::size_t>(k - 1)),
          last(static_cast<std::size_t>(k - 1))
    {
    }

    RadixTreeView
    view()
    {
        return RadixTreeView{left, right, parent, leafParent, prefixLen,
                             first, last};
    }

    std::vector<std::int32_t>
    flattened() const
    {
        std::vector<std::int32_t> all;
        for (const auto* v :
             {&left, &right, &parent, &leafParent, &prefixLen, &first,
              &last})
            all.insert(all.end(), v->begin(), v->end());
        return all;
    }
};

TEST(DispatchEquivalence, BuildRadixTree)
{
    const auto codes = uniqueCodes(1200, 113);
    const auto k = static_cast<std::int64_t>(codes.size());
    ASSERT_GT(k, 1);
    expectDispatchInvariant([&](const GpuExec& exec) {
        RadixTreeStorage tree(k);
        buildRadixTreeGpu(exec, codes, k, tree.view());
        return tree.flattened();
    });
}

TEST(DispatchEquivalence, OctreeCountAndBuild)
{
    const auto codes = uniqueCodes(900, 114);
    const auto k = static_cast<std::int64_t>(codes.size());
    ASSERT_GT(k, 1);
    RadixTreeStorage tree(k);
    buildRadixTreeCpu(CpuExec{nullptr}, codes, k, tree.view());

    const auto num_counts = static_cast<std::size_t>(2 * k - 1);
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<std::uint32_t> counts(num_counts);
        countOctreeNodesGpu(exec, tree.view(), k, counts);
        return counts;
    });

    std::vector<std::uint32_t> counts(num_counts);
    countOctreeNodesCpu(CpuExec{nullptr}, tree.view(), k, counts);
    std::vector<std::uint32_t> offsets(num_counts);
    const std::uint64_t total = exclusiveScanCpu(CpuExec{nullptr}, counts,
                                                 offsets);

    const auto cap = static_cast<std::size_t>(maxOctreeNodes(k));
    expectDispatchInvariant([&](const GpuExec& exec) {
        std::vector<std::uint32_t> prefix(cap);
        std::vector<std::int32_t> level(cap);
        std::vector<std::int32_t> parent(cap);
        std::vector<std::uint32_t> childMask(cap);
        std::vector<std::int32_t> firstCode(cap);
        std::vector<std::int32_t> codeCount(cap);
        const OctreeView view{prefix,    level,     parent,
                              childMask, firstCode, codeCount};
        const std::int64_t nodes
            = buildOctreeGpu(exec, codes, k, tree.view(), counts, offsets,
                             total, view);
        std::vector<std::int32_t> all;
        all.push_back(static_cast<std::int32_t>(nodes));
        const auto used = static_cast<std::size_t>(nodes);
        for (std::size_t i = 0; i < used; ++i) {
            all.push_back(static_cast<std::int32_t>(prefix[i]));
            all.push_back(level[i]);
            all.push_back(parent[i]);
            all.push_back(static_cast<std::int32_t>(childMask[i]));
            all.push_back(firstCode[i]);
            all.push_back(codeCount[i]);
        }
        return all;
    });
}

} // namespace
} // namespace bt::kernels
