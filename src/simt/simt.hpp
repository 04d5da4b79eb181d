/**
 * @file
 * SIMT-style kernel launch layer: the framework's stand-in for CUDA and
 * Vulkan compute (see DESIGN.md, substitution table).
 *
 * GPU kernels in this codebase are written exactly as they would be in
 * CUDA: a grid of thread blocks, each thread identified by
 * (blockIdx, threadIdx), usually iterating a grid-stride loop. Cooperative
 * algorithms (scan, histogram, radix sort) are phase-structured as multiple
 * kernel launches - the standard way GPU code expresses device-wide
 * barriers - so no intra-block barrier primitive is needed.
 *
 * Execution is functional and deterministic on the host; timing of GPU
 * work is the job of the platform performance model, not this layer.
 *
 * Dispatch (see docs/DISPATCH.md): the launch templates instantiate the
 * kernel functor statically, so the per-thread call inlines into the
 * block loop.
 */

#ifndef BT_SIMT_SIMT_HPP
#define BT_SIMT_SIMT_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "sched/thread_pool.hpp"

namespace bt::simt {

/** Grid geometry of one kernel launch (1-D, like all kernels here). */
struct LaunchConfig
{
    int gridDim = 1;   ///< number of thread blocks
    int blockDim = 64; ///< threads per block

    /** Total threads in the launch. */
    std::int64_t
    totalThreads() const
    {
        return static_cast<std::int64_t>(gridDim) * blockDim;
    }

    /**
     * Geometry covering @p n items with @p block threads per block. Safe
     * for the whole std::int64_t range of @p n: the block count is
     * computed without the rounding addition that could overflow, then
     * clamped to @p max_grid.
     */
    static LaunchConfig cover(std::int64_t n, int block = 64,
                              int max_grid = 1024);
};

/** Identity of one SIMT thread inside a launch. */
struct WorkItem
{
    int blockIdx = 0;
    int threadIdx = 0;
    int blockDim = 1;
    int gridDim = 1;

    /** Flattened global thread id, CUDA's blockIdx*blockDim+threadIdx. */
    std::int64_t
    globalId() const
    {
        return static_cast<std::int64_t>(blockIdx) * blockDim + threadIdx;
    }

    /** Total threads; the stride of a grid-stride loop. */
    std::int64_t
    globalSize() const
    {
        return static_cast<std::int64_t>(gridDim) * blockDim;
    }
};

/**
 * Execute every thread of block @p block of @p cfg against @p kernel.
 * Statically instantiated per kernel type: with a concrete functor the
 * per-thread call inlines into this loop and costs nothing.
 */
template <typename F>
inline void
runBlock(const LaunchConfig& cfg, F& kernel, int block)
{
    WorkItem item;
    item.blockIdx = block;
    item.blockDim = cfg.blockDim;
    item.gridDim = cfg.gridDim;
    for (int t = 0; t < cfg.blockDim; ++t) {
        item.threadIdx = t;
        kernel(static_cast<const WorkItem&>(item));
    }
}

/**
 * Launch @p kernel over @p cfg, executing every thread exactly once.
 * Blocks are executed in order; threads within a block in threadIdx order,
 * which makes kernels deterministic (real GPUs give no such ordering, so
 * kernels must not rely on it for correctness - tests shuffle block order
 * to check that).
 */
template <typename F>
inline void
launch(const LaunchConfig& cfg, F&& kernel)
{
    BT_ASSERT(cfg.gridDim > 0 && cfg.blockDim > 0, "empty launch");
    for (int b = 0; b < cfg.gridDim; ++b)
        runBlock(cfg, kernel, b);
}

/**
 * Launch with blocks distributed over a host thread pool; used to speed up
 * functional execution on many-core hosts. Semantics are identical to the
 * serial launch for data-race-free kernels. Blocks are handed to workers
 * in contiguous batches through the pool's chunked parallelForBlocks, so
 * per-block scheduling costs amortize over a whole batch.
 */
template <typename F>
inline void
launch(sched::ThreadPool& pool, const LaunchConfig& cfg, F&& kernel)
{
    BT_ASSERT(cfg.gridDim > 0 && cfg.blockDim > 0, "empty launch");
    pool.parallelForBlocks(
        0, cfg.gridDim, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t b = lo; b < hi; ++b)
                runBlock(cfg, kernel, static_cast<int>(b));
        });
}

/**
 * Pseudo-random block visitation order for @p grid_dim blocks; the
 * deterministic Fisher-Yates permutation behind launchShuffled.
 */
std::vector<int> shuffledBlockOrder(int grid_dim, std::uint64_t seed);

/**
 * Debug launch that visits blocks in a pseudo-random order derived from
 * @p seed. Kernels whose output changes under this launch have an
 * inter-block ordering bug that a real GPU would expose.
 */
template <typename F>
inline void
launchShuffled(const LaunchConfig& cfg, F&& kernel, std::uint64_t seed)
{
    BT_ASSERT(cfg.gridDim > 0 && cfg.blockDim > 0, "empty launch");
    for (int b : shuffledBlockOrder(cfg.gridDim, seed))
        runBlock(cfg, kernel, b);
}

/**
 * Run @p body for every index in [0, n) using a grid-stride loop from
 * @p item - the canonical "for (i = gid; i < n; i += stride)" idiom.
 */
template <typename Body>
inline void
gridStride(const WorkItem& item, std::int64_t n, Body&& body)
{
    const std::int64_t stride = item.globalSize();
    for (std::int64_t i = item.globalId(); i < n; i += stride)
        body(i);
}

} // namespace bt::simt

#endif // BT_SIMT_SIMT_HPP
