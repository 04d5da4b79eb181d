/**
 * @file
 * SIMD tier coverage:
 *  - Vec semantics against the VecGeneric lane-loop model (max's
 *    NaN/signed-zero behavior, partial load/store edges, shuffles);
 *  - scalar-vs-SIMD bit-identity sweeps over every vectorized kernel
 *    at awkward shapes (lane-1, lane, lane+1, primes, minimal sizes)
 *    and thread counts, for every tier available on this host;
 *  - a chained conv-net forward (the app stage composition) across
 *    tiers;
 *  - bt::check interaction: seeded-defect fixtures still flag and
 *    clean kernels stay clean at any tier, because the instrumented
 *    path runs the scalar per-element GPU bodies regardless of the
 *    host tier.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/fixtures.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/csr.hpp"
#include "kernels/linear.hpp"
#include "kernels/pooling.hpp"
#include "kernels/simd_ops.hpp"
#include "kernels/sparse_conv.hpp"
#include "sched/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include "common/simd_x86.hpp"
#endif

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

void
expectBitIdentical(const std::vector<float>& golden,
                   const std::vector<float>& got, const std::string& label)
{
    ASSERT_EQ(golden.size(), got.size()) << label;
    if (!golden.empty()) {
        ASSERT_EQ(0,
                  std::memcmp(golden.data(), got.data(),
                              golden.size() * sizeof(float)))
            << label;
    }
}

/** Pin a dispatch tier for the current scope. */
class ScopedTier
{
  public:
    explicit ScopedTier(simd::Isa isa) { setSimdIsaForTesting(isa); }
    ~ScopedTier() { resetSimdIsaForTesting(); }
    ScopedTier(const ScopedTier&) = delete;
    ScopedTier& operator=(const ScopedTier&) = delete;
};

std::vector<simd::Isa>
availableVectorTiers()
{
    std::vector<simd::Isa> tiers;
    for (simd::Isa isa :
         {simd::Isa::Sse2, simd::Isa::Avx2, simd::Isa::Neon}) {
        if (simdTierAvailable(isa))
            tiers.push_back(isa);
    }
    return tiers;
}

/**
 * Golden run forced scalar and serial; every (tier, team) combination
 * must reproduce it bit-for-bit. @p run maps a CpuExec to the kernel's
 * flattened output.
 */
template <typename Run>
void
expectTierInvariant(Run&& run)
{
    std::vector<float> golden;
    {
        const ScopedTier scalar(simd::Isa::Scalar);
        golden = run(CpuExec{});
    }
    for (simd::Isa isa : availableVectorTiers()) {
        const ScopedTier tier(isa);
        expectBitIdentical(golden, run(CpuExec{}),
                           std::string(simd::isaName(isa)) + "/serial");
        for (int team : {2, 8}) {
            sched::ThreadPool pool(team);
            expectBitIdentical(golden, run(CpuExec{&pool}),
                               std::string(simd::isaName(isa)) + "/team"
                                   + std::to_string(team));
        }
    }
    // The scalar fallback's own parallel decomposition must agree too.
    {
        const ScopedTier scalar(simd::Isa::Scalar);
        for (int team : {2, 8}) {
            sched::ThreadPool pool(team);
            expectBitIdentical(golden, run(CpuExec{&pool}),
                               "scalar/team" + std::to_string(team));
        }
    }
}

// ------------------------------------------------------- Vec semantics

template <typename V>
void
vecMatchesModel()
{
    constexpr int W = V::width;
    using M = simd::VecGeneric<W>;
    alignas(64) float a[W];
    alignas(64) float b[W];
    for (int i = 0; i < W; ++i) {
        a[i] = 0.25f * static_cast<float>(i) - 0.8f;
        b[i] = -0.5f * static_cast<float>(i) + 0.6f;
    }
    // Adversarial max lanes: NaN on either side, signed zeros, equal.
    a[0] = std::numeric_limits<float>::quiet_NaN();
    b[W - 1] = std::numeric_limits<float>::quiet_NaN();
    a[1 % W] = -0.0f;
    b[1 % W] = 0.0f;

    const auto check = [&](auto vec, auto model, const char* what) {
        alignas(64) float got[W];
        alignas(64) float want[W];
        vec.storeu(got);
        model.storeu(want);
        ASSERT_EQ(0, std::memcmp(got, want, sizeof(got))) << what;
    };

    check(V::mulAdd(V::loadu(a), V::loadu(b), V::broadcast(0.125f)),
          M::mulAdd(M::loadu(a), M::loadu(b), M::broadcast(0.125f)),
          "mulAdd");
    check(V::max(V::loadu(a), V::loadu(b)),
          M::max(M::loadu(a), M::loadu(b)), "max(a,b)");
    check(V::max(V::loadu(b), V::loadu(a)),
          M::max(M::loadu(b), M::loadu(a)), "max(b,a)");

    // Partial loads zero-fill; partial stores leave the tail untouched.
    for (int n = 0; n <= W; ++n) {
        check(V::loadPartial(a, n), M::loadPartial(a, n), "loadPartial");
        alignas(64) float got[W];
        alignas(64) float want[W];
        for (int i = 0; i < W; ++i)
            got[i] = want[i] = 123.5f;
        V::loadu(b).storePartial(got, n);
        M::loadu(b).storePartial(want, n);
        ASSERT_EQ(0, std::memcmp(got, want, sizeof(got)))
            << "storePartial n=" << n;
    }

    alignas(64) float wide[2 * W];
    for (int i = 0; i < 2 * W; ++i)
        wide[i] = 1.5f * static_cast<float>(i) - 3.0f;
    V e;
    V o;
    M me;
    M mo;
    V::deinterleave2(wide, e, o);
    M::deinterleave2(wide, me, mo);
    check(e, me, "deinterleave even");
    check(o, mo, "deinterleave odd");

    check(V::gatherStride(wide, 2), M::gatherStride(wide, 2), "gather");
    check(V::broadcast(-7.25f), M::broadcast(-7.25f), "broadcast");
    check(V::zero(), M::zero(), "zero");
}

TEST(SimdVec, GenericWidth4SelfConsistent)
{
    vecMatchesModel<simd::VecGeneric<4>>();
}

TEST(SimdVec, GenericWidth8SelfConsistent)
{
    vecMatchesModel<simd::VecGeneric<8>>();
}

#if defined(__x86_64__) || defined(__i386__)
TEST(SimdVec, Sse2MatchesModel) { vecMatchesModel<simd::VecSse2>(); }
#endif

TEST(SimdVec, MaxMatchesStdMaxOnSpecials)
{
    using M = simd::VecGeneric<4>;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    alignas(64) const float a[4] = {nan, 1.0f, -0.0f, 2.0f};
    alignas(64) const float b[4] = {1.0f, nan, 0.0f, -2.0f};
    alignas(64) float got[4];
    M::max(M::loadu(a), M::loadu(b)).storeu(got);
    for (int i = 0; i < 4; ++i) {
        const float want = std::max(a[i], b[i]);
        ASSERT_EQ(0, std::memcmp(&got[i], &want, sizeof(float))) << i;
    }
}

TEST(SimdDispatch, TierReportsLanesAndAvailability)
{
    const SimdTier tier = simdTier();
    EXPECT_EQ(tier.lanes, simd::isaLanes(tier.isa));
    EXPECT_TRUE(simdTierAvailable(tier.isa));
    EXPECT_TRUE(simdTierAvailable(simd::Isa::Scalar));
    for (simd::Isa isa : availableVectorTiers()) {
        const ScopedTier forced(isa);
        EXPECT_EQ(simdTier().isa, isa);
        EXPECT_TRUE(simdTier().forced);
    }
}

// --------------------------------------------------- kernel sweeps

struct ConvCase
{
    int c;
    int h;
    int w;
    int outC;
};

class SimdConv : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(SimdConv, DenseBitIdenticalAcrossTiers)
{
    const auto [c, h, w, outC] = GetParam();
    const ConvShape shape{Shape3{c, h, w}, outC};
    const auto in = randomFloats(
        static_cast<std::size_t>(shape.in.elems()), 31);
    const auto wts = randomFloats(
        static_cast<std::size_t>(shape.weightElems()), 32);
    const auto bias = randomFloats(static_cast<std::size_t>(outC), 33);
    expectTierInvariant([&](const CpuExec& exec) {
        std::vector<float> out(
            static_cast<std::size_t>(shape.out().elems()));
        conv2dCpu(exec, shape, in, wts, bias, out);
        return out;
    });
}

TEST_P(SimdConv, SparseBitIdenticalAcrossTiers)
{
    const auto [c, h, w, outC] = GetParam();
    const ConvShape shape{Shape3{c, h, w}, outC};
    const auto in = randomFloats(
        static_cast<std::size_t>(shape.in.elems()), 41);
    const auto dense = randomFloats(
        static_cast<std::size_t>(shape.weightElems()), 42);
    const auto bias = randomFloats(static_cast<std::size_t>(outC), 43);
    const CsrMatrix csr = pruneToCsr(dense, outC, c * 9, 0.4);
    expectTierInvariant([&](const CpuExec& exec) {
        std::vector<float> out(
            static_cast<std::size_t>(shape.out().elems()));
        sparseConvCpu(exec, shape, in, csr, bias, out);
        return out;
    });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdConv,
    ::testing::Values(ConvCase{1, 1, 1, 1}, ConvCase{1, 3, 3, 2},
                      ConvCase{1, 5, 7, 3}, ConvCase{2, 4, 8, 4},
                      ConvCase{3, 7, 9, 5}, ConvCase{2, 2, 17, 7},
                      ConvCase{5, 16, 15, 8}, ConvCase{3, 13, 31, 6}),
    [](const auto& param_info) {
        return "c" + std::to_string(param_info.param.c) + "h"
            + std::to_string(param_info.param.h) + "w"
            + std::to_string(param_info.param.w) + "oc"
            + std::to_string(param_info.param.outC);
    });

TEST(SimdMaxpool, BitIdenticalAcrossTiers)
{
    const Shape3 shapes[] = {{1, 2, 2},   {3, 6, 8},  {2, 16, 34},
                             {5, 30, 14}, {3, 7, 9},  {1, 2, 18},
                             {4, 9, 33},  {2, 5, 17}};
    for (const Shape3& shape : shapes) {
        const auto in = randomFloats(
            static_cast<std::size_t>(shape.elems()), 71);
        expectTierInvariant([&](const CpuExec& exec) {
            std::vector<float> out(static_cast<std::size_t>(
                pooledShape(shape).elems()));
            maxpoolCpu(exec, shape, in, out);
            return out;
        });
    }
}

TEST(SimdLinear, BitIdenticalAcrossTiers)
{
    const int cases[][2] = {{1, 1},  {7, 9},   {16, 8},  {31, 33},
                            {9, 31}, {257, 15}, {64, 10}, {300, 17}};
    for (const auto& fc : cases) {
        const int inF = fc[0];
        const int outF = fc[1];
        const auto in = randomFloats(static_cast<std::size_t>(inF), 81);
        const auto wts = randomFloats(
            static_cast<std::size_t>(inF) * outF, 82);
        const auto bias = randomFloats(static_cast<std::size_t>(outF),
                                       83);
        expectTierInvariant([&](const CpuExec& exec) {
            std::vector<float> out(static_cast<std::size_t>(outF));
            linearCpu(exec, inF, outF, in, wts, bias, out);
            return out;
        });
    }
}

// ----------------------------------------------- chained forward pass

/**
 * Compose the kernels the way the AlexNet app stages do
 * (conv -> pool -> conv -> pool -> linear) and require the whole chain
 * to be bit-identical across tiers: divergence anywhere would compound
 * through downstream stages, so this is the app-level guarantee.
 */
TEST(SimdForward, ChainedDenseAndSparseBitIdenticalAcrossTiers)
{
    const ConvShape conv1{Shape3{3, 16, 16}, 8};
    const Shape3 pool1In = conv1.out();
    const Shape3 pool1Out = pooledShape(pool1In);
    const ConvShape conv2{pool1Out, 12};
    const Shape3 pool2Out = pooledShape(conv2.out());
    const int fcIn = static_cast<int>(pool2Out.elems());
    const int fcOut = 10;

    const auto image = randomFloats(
        static_cast<std::size_t>(conv1.in.elems()), 91);
    const auto w1 = randomFloats(
        static_cast<std::size_t>(conv1.weightElems()), 92);
    const auto b1 = randomFloats(static_cast<std::size_t>(conv1.outC),
                                 93);
    const auto w2dense = randomFloats(
        static_cast<std::size_t>(conv2.weightElems()), 94);
    const auto b2 = randomFloats(static_cast<std::size_t>(conv2.outC),
                                 95);
    const CsrMatrix w2csr
        = pruneToCsr(w2dense, conv2.outC, conv2.in.c * 9, 0.35);
    const auto wfc = randomFloats(
        static_cast<std::size_t>(fcIn) * fcOut, 96);
    const auto bfc = randomFloats(static_cast<std::size_t>(fcOut), 97);

    for (const bool sparse : {false, true}) {
        expectTierInvariant([&](const CpuExec& exec) {
            std::vector<float> act1(
                static_cast<std::size_t>(conv1.out().elems()));
            conv2dCpu(exec, conv1, image, w1, b1, act1);
            std::vector<float> pooled1(
                static_cast<std::size_t>(pool1Out.elems()));
            maxpoolCpu(exec, pool1In, act1, pooled1);
            std::vector<float> act2(
                static_cast<std::size_t>(conv2.out().elems()));
            if (sparse)
                sparseConvCpu(exec, conv2, pooled1, w2csr, b2, act2);
            else
                conv2dCpu(exec, conv2, pooled1, w2dense, b2, act2);
            std::vector<float> pooled2(
                static_cast<std::size_t>(pool2Out.elems()));
            maxpoolCpu(exec, conv2.out(), act2, pooled2);
            std::vector<float> logits(static_cast<std::size_t>(fcOut));
            linearCpu(exec, fcIn, fcOut, pooled2, wfc, bfc, logits);
            return logits;
        });
    }
}

// -------------------------------------------------- checker interplay

/**
 * The instrumented path must be tier-independent: checked launches run
 * the scalar per-element GPU bodies, so outputs match the scalar
 * reference and the report stays clean no matter which host tier is
 * pinned.
 */
TEST(SimdCheck, CleanKernelStaysCleanAndScalarUnderEveryTier)
{
    const ConvShape shape{Shape3{3, 9, 11}, 5};
    const auto in = randomFloats(
        static_cast<std::size_t>(shape.in.elems()), 111);
    const auto wts = randomFloats(
        static_cast<std::size_t>(shape.weightElems()), 112);
    const auto bias = randomFloats(static_cast<std::size_t>(shape.outC),
                                   113);
    std::vector<float> ref(
        static_cast<std::size_t>(shape.out().elems()));
    conv2dReference(shape, in, wts, bias, ref);

    std::vector<simd::Isa> tiers = availableVectorTiers();
    tiers.push_back(simd::Isa::Scalar);
    for (simd::Isa isa : tiers) {
        const ScopedTier tier(isa);
        check::Checker checker;
        GpuExec exec;
        exec.observer = &checker;
        std::vector<float> out(ref.size());
        conv2dGpu(exec, shape, in, wts, bias, out);
        expectBitIdentical(ref, out, simd::isaName(isa));
        EXPECT_TRUE(checker.report().clean()) << simd::isaName(isa);
    }
}

TEST(SimdCheck, SeededDefectFixturesStillFlagUnderEveryTier)
{
    std::vector<simd::Isa> tiers = availableVectorTiers();
    tiers.push_back(simd::Isa::Scalar);
    for (simd::Isa isa : tiers) {
        const ScopedTier tier(isa);
        for (const auto& result : check::runSeededDefects()) {
            EXPECT_TRUE(result.flagged)
                << result.name << " under " << simd::isaName(isa);
        }
    }
}

} // namespace
} // namespace bt::kernels
