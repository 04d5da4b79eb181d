/**
 * @file
 * Google-benchmark microbenchmarks of the compute kernels (the paper's
 * harness is "built on top of Google Benchmark", Sec. 4). These measure
 * the host's functional execution speed - useful for regression
 * tracking of the kernel implementations themselves; simulated-device
 * timing is covered by the table/figure benches.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/image.hpp"
#include "kernels/morton.hpp"
#include "kernels/pooling.hpp"
#include "kernels/prefix_sum.hpp"
#include "kernels/radix_tree.hpp"
#include "kernels/simd_ops.hpp"
#include "kernels/sort.hpp"
#include "kernels/sparse_conv.hpp"
#include "kernels/unique.hpp"
#include "simt/simt.hpp"

namespace {

using namespace bt;
using namespace bt::kernels;

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.nextRange(-1.0, 1.0));
    return v;
}

std::vector<std::uint32_t>
randomKeys(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> v(n);
    for (auto& x : v)
        x = static_cast<std::uint32_t>(rng.nextU64()) & 0x3FFFFFFFu;
    return v;
}

void
BM_Conv2dDense(benchmark::State& state)
{
    const int c = static_cast<int>(state.range(0));
    const ConvShape shape{Shape3{c, 16, 16}, c * 2};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 1);
    const auto w = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 2);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                3);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        conv2dCpu(CpuExec{nullptr}, shape, in, w, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.out().elems());
}
BENCHMARK(BM_Conv2dDense)->Arg(8)->Arg(32);

void
BM_SparseConv(benchmark::State& state)
{
    const ConvShape shape{Shape3{32, 16, 16}, 64};
    const auto dense = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 4);
    const CsrMatrix csr = pruneToCsr(
        dense, shape.outC, shape.in.c * 9,
        static_cast<double>(state.range(0)) / 100.0);
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 5);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                6);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        sparseConvCpu(CpuExec{nullptr}, shape, in, csr, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_SparseConv)->Arg(1)->Arg(10)->Arg(100);

void
BM_MortonEncode(benchmark::State& state)
{
    const std::int64_t n = state.range(0);
    const auto pts = randomFloats(static_cast<std::size_t>(3 * n), 7);
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(n));
    for (auto _ : state) {
        mortonEncodeCpu(CpuExec{nullptr}, pts, codes, n);
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MortonEncode)->Arg(1 << 14)->Arg(1 << 17);

void
BM_RadixSortCpu(benchmark::State& state)
{
    const auto keys = randomKeys(static_cast<std::size_t>(
        state.range(0)), 8);
    std::vector<std::uint32_t> work(keys.size());
    std::vector<std::uint32_t> scratch(keys.size());
    for (auto _ : state) {
        work = keys;
        radixSortCpu(CpuExec{nullptr}, work, scratch);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_RadixSortCpu)->Arg(1 << 14)->Arg(1 << 17);

void
BM_RadixSortGpuBackend(benchmark::State& state)
{
    const auto keys = randomKeys(static_cast<std::size_t>(
        state.range(0)), 9);
    std::vector<std::uint32_t> work(keys.size());
    std::vector<std::uint32_t> scratch(keys.size());
    for (auto _ : state) {
        work = keys;
        radixSortGpu(work, scratch);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_RadixSortGpuBackend)->Arg(1 << 14)->Arg(1 << 17);

void
BM_RadixTreeBuild(benchmark::State& state)
{
    auto codes = randomKeys(static_cast<std::size_t>(state.range(0)),
                            10);
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    const auto k = static_cast<std::int64_t>(codes.size());
    std::vector<std::int32_t> left(codes.size()), right(codes.size()),
        parent(codes.size()), leaf_parent(codes.size()),
        prefix_len(codes.size()), first(codes.size()),
        last(codes.size());
    const RadixTreeView view{left, right, parent, leaf_parent,
                             prefix_len, first, last};
    for (auto _ : state) {
        buildRadixTreeCpu(CpuExec{nullptr}, codes, k, view);
        benchmark::DoNotOptimize(left.data());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_RadixTreeBuild)->Arg(1 << 14)->Arg(1 << 16);

void
BM_ExclusiveScan(benchmark::State& state)
{
    Rng rng(11);
    std::vector<std::uint32_t> in(static_cast<std::size_t>(
        state.range(0)));
    for (auto& x : in)
        x = static_cast<std::uint32_t>(rng.nextBounded(8));
    std::vector<std::uint32_t> out(in.size());
    for (auto _ : state) {
        exclusiveScanCpu(CpuExec{nullptr}, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 16)->Arg(1 << 18);

// ---------------------------------------------------------------------
// Dispatch benchmarks: device kernels launched through the statically
// templated SIMT tier. Morton and Scan also launch their grid-stride
// body wrapped in a std::function (one indirect call per SIMT thread;
// the cost profile every launch paid before the templated tier existed,
// so Erased vs Templated is the dispatch overhead itself). Geometry
// covers one element per thread, as a real GPU launch would.
// ---------------------------------------------------------------------

constexpr int kDispatchMaxGrid = 1 << 20; // one element per thread

/** GpuExec::forEach's launch of @p body over [0, n), optionally with
 *  the block body type-erased. */
template <typename Body>
void
launchMap(std::int64_t n, const Body& body, bool erased)
{
    const auto cfg = simt::LaunchConfig::cover(n, 64, kDispatchMaxGrid);
    auto block = [&](const simt::WorkItem& item) {
        simt::gridStride(item, n, body);
    };
    if (erased) {
        const std::function<void(const simt::WorkItem&)> kernel = block;
        simt::launch(cfg, kernel);
    } else {
        simt::launch(cfg, block);
    }
}

GpuExec
dispatchExec()
{
    GpuExec exec;
    exec.maxGrid = kDispatchMaxGrid;
    return exec;
}

void
BM_MortonGpuDispatch(benchmark::State& state, bool erased)
{
    const std::int64_t n = 1 << 16;
    const auto pts = randomFloats(static_cast<std::size_t>(3 * n), 21);
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(n));
    const auto encode = [&](std::int64_t i) {
        const auto p = static_cast<std::size_t>(3 * i);
        codes[static_cast<std::size_t>(i)]
            = morton32(pts[p], pts[p + 1], pts[p + 2]);
    };
    for (auto _ : state) {
        launchMap(n, encode, erased);
        benchmark::DoNotOptimize(codes.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_MortonGpuDispatch, Templated, false);
BENCHMARK_CAPTURE(BM_MortonGpuDispatch, Erased, true);

void
BM_MaxpoolGpuDispatch(benchmark::State& state, const GpuExec& exec)
{
    const Shape3 shape{32, 64, 64};
    const auto in = randomFloats(static_cast<std::size_t>(shape.elems()),
                                 22);
    std::vector<float> out(static_cast<std::size_t>(
        pooledShape(shape).elems()));
    for (auto _ : state) {
        maxpoolGpu(exec, shape, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * pooledShape(shape).elems());
}
BENCHMARK_CAPTURE(BM_MaxpoolGpuDispatch, Templated, dispatchExec());

void
BM_BlurHGpuDispatch(benchmark::State& state, const GpuExec& exec)
{
    const ImageShape shape{512, 512};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.pixels()), 23);
    std::vector<float> out(static_cast<std::size_t>(shape.pixels()));
    for (auto _ : state) {
        blurHGpu(exec, shape, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.pixels());
}
BENCHMARK_CAPTURE(BM_BlurHGpuDispatch, Templated, dispatchExec());

void
BM_NmsGpuDispatch(benchmark::State& state, const GpuExec& exec)
{
    const ImageShape shape{512, 512};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.pixels()), 24);
    std::vector<std::uint32_t> flags(static_cast<std::size_t>(
        shape.pixels()));
    for (auto _ : state) {
        nmsGpu(exec, shape, in, 0.5f, flags);
        benchmark::DoNotOptimize(flags.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.pixels());
}
BENCHMARK_CAPTURE(BM_NmsGpuDispatch, Templated, dispatchExec());

void
BM_Conv2dGpuDispatch(benchmark::State& state, const GpuExec& exec)
{
    const ConvShape shape{Shape3{8, 32, 32}, 16};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 25);
    const auto w = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 26);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                27);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        conv2dGpu(exec, shape, in, w, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.out().elems());
}
BENCHMARK_CAPTURE(BM_Conv2dGpuDispatch, Templated, dispatchExec());

void
BM_ScanGpuDispatch(benchmark::State& state, bool erased)
{
    // Compaction-style flag scatter over the scan output: the map side
    // of prefix-sum pipelines (the scan itself is chunk-cooperative and
    // pays dispatch once per chunk, not per element).
    const std::int64_t n = 1 << 17;
    Rng rng(28);
    std::vector<std::uint32_t> flags(static_cast<std::size_t>(n));
    for (auto& f : flags)
        f = static_cast<std::uint32_t>(rng.nextBounded(2));
    std::vector<std::uint32_t> offsets(flags.size());
    std::vector<std::uint32_t> compacted(flags.size());
    const auto scatter = [&](std::int64_t i) {
        if (flags[static_cast<std::size_t>(i)])
            compacted[offsets[static_cast<std::size_t>(i)]]
                = static_cast<std::uint32_t>(i);
    };
    for (auto _ : state) {
        exclusiveScanGpu(flags, offsets);
        launchMap(n, scatter, erased);
        benchmark::DoNotOptimize(compacted.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_ScanGpuDispatch, Templated, false);
BENCHMARK_CAPTURE(BM_ScanGpuDispatch, Erased, true);

// ---------------------------------------------------------------------
// Host-body trajectory benchmarks: the tuned host kernels against the
// single-threaded references. Each reference is the per-element body the
// seed's host path ran (flat index + divisions per element), unchanged
// since the seed, so Tuned vs SeedPath is the host-kernel speedup of
// this tree over the seed tree on the same machine.
// ---------------------------------------------------------------------

void
BM_Conv2dHostBody(benchmark::State& state, bool tuned)
{
    const ConvShape shape{Shape3{16, 32, 32}, 32};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 32);
    const auto w = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 33);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                34);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        if (tuned)
            conv2dCpu(CpuExec{nullptr}, shape, in, w, b, out);
        else
            conv2dReference(shape, in, w, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.out().elems());
}
BENCHMARK_CAPTURE(BM_Conv2dHostBody, Tuned, true);
BENCHMARK_CAPTURE(BM_Conv2dHostBody, SeedPath, false);

void
BM_SparseConvHostBody(benchmark::State& state, bool tuned)
{
    const ConvShape shape{Shape3{32, 16, 16}, 64};
    const auto dense = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 35);
    const CsrMatrix csr = pruneToCsr(dense, shape.outC, shape.in.c * 9,
                                     0.10);
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 36);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                37);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        if (tuned)
            sparseConvCpu(CpuExec{nullptr}, shape, in, csr, b, out);
        else
            sparseConvReference(shape, in, csr, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.out().elems());
}
BENCHMARK_CAPTURE(BM_SparseConvHostBody, Tuned, true);
BENCHMARK_CAPTURE(BM_SparseConvHostBody, SeedPath, false);

void
BM_MaxpoolHostBody(benchmark::State& state, bool tuned)
{
    const Shape3 shape{32, 64, 64};
    const auto in = randomFloats(static_cast<std::size_t>(shape.elems()),
                                 38);
    std::vector<float> out(static_cast<std::size_t>(
        pooledShape(shape).elems()));
    for (auto _ : state) {
        if (tuned)
            maxpoolCpu(CpuExec{nullptr}, shape, in, out);
        else
            maxpoolReference(shape, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations()
                            * pooledShape(shape).elems());
}
BENCHMARK_CAPTURE(BM_MaxpoolHostBody, Tuned, true);
BENCHMARK_CAPTURE(BM_MaxpoolHostBody, SeedPath, false);

// SIMD-vs-scalar tier pairs: same shape and data, dispatch pinned to
// the widest available tier vs the scalar fallback. The Simd/Scalar
// ratio inside one snapshot prices the vector layer without the
// cross-host noise of comparing two BENCH_kernels.json files; the CI
// bench smoke asserts the expected margins (skipped when the host's
// best tier is already scalar).

/** Pin @p simd ? widest built+supported tier : scalar for the loop. */
class ScopedBenchTier
{
  public:
    explicit ScopedBenchTier(bool simd)
    {
        bt::simd::Isa isa = simd ? bt::simd::bestCpuIsa()
                                 : bt::simd::Isa::Scalar;
        // The CPU may support a tier the build left out
        // (-DBT_ENABLE_AVX2=OFF): clamp like the runtime dispatcher.
        while (!simdTierAvailable(isa))
            isa = bt::simd::fallbackIsa(isa);
        setSimdIsaForTesting(isa);
    }
    ~ScopedBenchTier() { resetSimdIsaForTesting(); }
    ScopedBenchTier(const ScopedBenchTier&) = delete;
    ScopedBenchTier& operator=(const ScopedBenchTier&) = delete;
};

void
BM_Conv2dSimdTier(benchmark::State& state, bool simd)
{
    const ScopedBenchTier tier(simd);
    const ConvShape shape{Shape3{32, 16, 16}, 64};
    const auto in = randomFloats(static_cast<std::size_t>(
        shape.in.elems()), 34);
    const auto w = randomFloats(static_cast<std::size_t>(
        shape.weightElems()), 35);
    const auto b = randomFloats(static_cast<std::size_t>(shape.outC),
                                36);
    std::vector<float> out(static_cast<std::size_t>(
        shape.out().elems()));
    for (auto _ : state) {
        conv2dCpu(CpuExec{nullptr}, shape, in, w, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * shape.out().elems());
    state.SetLabel(bt::simd::isaName(simdTier().isa));
}
BENCHMARK_CAPTURE(BM_Conv2dSimdTier, Simd, true);
BENCHMARK_CAPTURE(BM_Conv2dSimdTier, Scalar, false);

} // namespace
