/**
 * @file
 * Unit tests for the CNN kernels: dense conv / pooling / linear against
 * references and across backends, CSR construction and pruning
 * invariants, and sparse-vs-dense convolution equivalence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/csr.hpp"
#include "kernels/linear.hpp"
#include "kernels/pooling.hpp"
#include "kernels/sparse_conv.hpp"
#include "sched/thread_pool.hpp"

namespace bt::kernels {
namespace {

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed, double lo = -1.0,
          double hi = 1.0)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.nextRange(lo, hi));
    return v;
}

void
expectNearVec(std::span<const float> a, std::span<const float> b,
              float tol = 1e-4f)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
}

struct ConvCase
{
    int inC, size, outC;
};

class ConvShapes : public ::testing::TestWithParam<ConvCase>
{
  protected:
    ConvShape
    shape() const
    {
        const auto p = GetParam();
        return ConvShape{Shape3{p.inC, p.size, p.size}, p.outC};
    }
};

TEST_P(ConvShapes, CpuMatchesReference)
{
    const ConvShape s = shape();
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              1);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             2);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 3);
    std::vector<float> want(static_cast<std::size_t>(s.out().elems()));
    std::vector<float> got(want.size());

    conv2dReference(s, in, w, b, want);
    sched::ThreadPool pool(3);
    conv2dCpu(CpuExec{&pool}, s, in, w, b, got);
    expectNearVec(got, want);
}

TEST_P(ConvShapes, GpuMatchesReference)
{
    const ConvShape s = shape();
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              4);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             5);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 6);
    std::vector<float> want(static_cast<std::size_t>(s.out().elems()));
    std::vector<float> got(want.size());

    conv2dReference(s, in, w, b, want);
    conv2dGpu(GpuExec{}, s, in, w, b, got);
    expectNearVec(got, want);
}

TEST_P(ConvShapes, OutputIsReluClamped)
{
    const ConvShape s = shape();
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              7);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             8);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 9);
    std::vector<float> out(static_cast<std::size_t>(s.out().elems()));
    conv2dReference(s, in, w, b, out);
    for (float v : out)
        EXPECT_GE(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Values(ConvCase{1, 4, 1}, ConvCase{3, 8, 4},
                      ConvCase{4, 6, 8}, ConvCase{3, 32, 16}));

TEST(Conv2d, ZeroPaddingBehaviour)
{
    // All-ones input and a single-weight kernel centered at (1,1):
    // interior outputs see the full value; corners see it too (only
    // the center tap is nonzero).
    const ConvShape s{Shape3{1, 4, 4}, 1};
    std::vector<float> in(16, 1.0f);
    std::vector<float> w(9, 0.0f);
    w[4] = 2.0f; // center tap
    std::vector<float> b{0.0f};
    std::vector<float> out(16);
    conv2dReference(s, in, w, b, out);
    for (float v : out)
        EXPECT_FLOAT_EQ(v, 2.0f);

    // Corner tap: outputs at the far corner lose it to padding.
    std::fill(w.begin(), w.end(), 0.0f);
    w[0] = 1.0f; // (ky=0, kx=0) reads (y-1, x-1)
    conv2dReference(s, in, w, b, out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);  // (0,0) reads (-1,-1) -> padding
    EXPECT_FLOAT_EQ(out[5], 1.0f);  // interior
}

TEST(Maxpool, ReferenceAndBackendsAgree)
{
    const Shape3 in_shape{3, 8, 8};
    const auto in = randomVec(static_cast<std::size_t>(
        in_shape.elems()), 10);
    const auto out_elems = static_cast<std::size_t>(
        pooledShape(in_shape).elems());
    std::vector<float> want(out_elems), cpu(out_elems), gpu(out_elems);
    maxpoolReference(in_shape, in, want);
    sched::ThreadPool pool(2);
    maxpoolCpu(CpuExec{&pool}, in_shape, in, cpu);
    maxpoolGpu(GpuExec{}, in_shape, in, gpu);
    expectNearVec(cpu, want, 0.0f);
    expectNearVec(gpu, want, 0.0f);
}

TEST(Maxpool, PicksWindowMaximum)
{
    const Shape3 in_shape{1, 2, 2};
    std::vector<float> in{1.0f, 7.0f, -3.0f, 2.0f};
    std::vector<float> out(1);
    maxpoolReference(in_shape, in, out);
    EXPECT_FLOAT_EQ(out[0], 7.0f);
}

TEST(Maxpool, OddSizesFloorDivision)
{
    const Shape3 in_shape{1, 5, 5};
    EXPECT_EQ(pooledShape(in_shape).h, 2);
    EXPECT_EQ(pooledShape(in_shape).w, 2);
}

TEST(Linear, MatchesManualDot)
{
    const int in_f = 3, out_f = 2;
    std::vector<float> in{1.0f, 2.0f, 3.0f};
    std::vector<float> w{1.0f, 0.0f, 0.0f, /* row 0 */
                         0.5f, 0.5f, 0.5f /* row 1 */};
    std::vector<float> b{10.0f, -1.0f};
    std::vector<float> out(2);
    linearReference(in_f, out_f, in, w, b, out);
    EXPECT_FLOAT_EQ(out[0], 11.0f);
    EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(Linear, BackendsMatchReference)
{
    const int in_f = 128, out_f = 10;
    const auto in = randomVec(in_f, 11);
    const auto w = randomVec(static_cast<std::size_t>(in_f) * out_f,
                             12);
    const auto b = randomVec(out_f, 13);
    std::vector<float> want(out_f), cpu(out_f), gpu(out_f);
    linearReference(in_f, out_f, in, w, b, want);
    sched::ThreadPool pool(2);
    linearCpu(CpuExec{&pool}, in_f, out_f, in, w, b, cpu);
    linearGpu(GpuExec{}, in_f, out_f, in, w, b, gpu);
    expectNearVec(cpu, want);
    expectNearVec(gpu, want);
}

class CsrDensities : public ::testing::TestWithParam<double>
{
};

TEST_P(CsrDensities, PruneHitsTargetDensity)
{
    const int rows = 32, cols = 45;
    const auto dense = randomVec(static_cast<std::size_t>(rows) * cols,
                                 14);
    const CsrMatrix m = pruneToCsr(dense, rows, cols, GetParam());
    EXPECT_TRUE(m.wellFormed());
    EXPECT_NEAR(m.density(), GetParam(), 1.0 / (rows * cols) + 1e-9);
}

TEST_P(CsrDensities, PruneKeepsLargestMagnitudes)
{
    const int rows = 16, cols = 16;
    const auto dense = randomVec(static_cast<std::size_t>(rows) * cols,
                                 15);
    const CsrMatrix m = pruneToCsr(dense, rows, cols, GetParam());
    // The smallest kept magnitude must be >= the largest dropped one.
    const auto back = csrToDense(m);
    float min_kept = 1e30f, max_dropped = 0.0f;
    for (std::size_t i = 0; i < dense.size(); ++i) {
        const float mag = std::fabs(dense[i]);
        if (back[i] != 0.0f)
            min_kept = std::min(min_kept, mag);
        else
            max_dropped = std::max(max_dropped, mag);
    }
    EXPECT_GE(min_kept, max_dropped);
}

INSTANTIATE_TEST_SUITE_P(Densities, CsrDensities,
                         ::testing::Values(0.01, 0.05, 0.25, 1.0));

TEST(Csr, RoundTripThroughDense)
{
    const int rows = 8, cols = 12;
    auto dense = randomVec(static_cast<std::size_t>(rows) * cols, 16);
    // Zero out some entries to create structure.
    for (std::size_t i = 0; i < dense.size(); i += 3)
        dense[i] = 0.0f;
    const CsrMatrix m = pruneToCsr(dense, rows, cols, 1.0);
    EXPECT_TRUE(m.wellFormed());
    // Full density keeps everything nonzero... pruning with target 1.0
    // keeps |dense| entries incl. zeros at threshold; round trip must
    // preserve all nonzeros.
    const auto back = csrToDense(m);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        if (dense[i] != 0.0f) {
            EXPECT_FLOAT_EQ(back[i], dense[i]);
        }
    }
}

TEST(SparseConv, MatchesDenseWhenUnpruned)
{
    const ConvShape s{Shape3{3, 8, 8}, 5};
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              17);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             18);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 19);
    const CsrMatrix csr = pruneToCsr(w, s.outC, s.in.c * 9, 1.0);

    std::vector<float> dense_out(static_cast<std::size_t>(
        s.out().elems()));
    std::vector<float> sparse_out(dense_out.size());
    conv2dReference(s, in, w, b, dense_out);
    sparseConvReference(s, in, csr, b, sparse_out);
    expectNearVec(sparse_out, dense_out, 1e-3f);
}

TEST(SparseConv, BackendsAgreeOnPrunedWeights)
{
    const ConvShape s{Shape3{4, 10, 10}, 6};
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              20);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             21);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 22);
    const CsrMatrix csr = pruneToCsr(w, s.outC, s.in.c * 9, 0.1);

    std::vector<float> want(static_cast<std::size_t>(s.out().elems()));
    std::vector<float> cpu(want.size()), gpu(want.size());
    sparseConvReference(s, in, csr, b, want);
    sched::ThreadPool pool(3);
    sparseConvCpu(CpuExec{&pool}, s, in, csr, b, cpu);
    sparseConvGpu(GpuExec{}, s, in, csr, b, gpu);
    expectNearVec(cpu, want, 0.0f);
    expectNearVec(gpu, want, 0.0f);
}

TEST(SparseConv, PrunedMatchesManuallyZeroedDense)
{
    const ConvShape s{Shape3{2, 6, 6}, 3};
    const auto in = randomVec(static_cast<std::size_t>(s.in.elems()),
                              23);
    const auto w = randomVec(static_cast<std::size_t>(s.weightElems()),
                             24);
    const auto b = randomVec(static_cast<std::size_t>(s.outC), 25);
    const CsrMatrix csr = pruneToCsr(w, s.outC, s.in.c * 9, 0.3);
    const auto pruned_dense = csrToDense(csr);

    std::vector<float> want(static_cast<std::size_t>(s.out().elems()));
    std::vector<float> got(want.size());
    conv2dReference(s, in, pruned_dense, b, want);
    sparseConvReference(s, in, csr, b, got);
    expectNearVec(got, want, 1e-4f);
}

} // namespace
} // namespace bt::kernels
