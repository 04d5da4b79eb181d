/**
 * @file
 * Backend execution adapters for compute kernels.
 *
 * Every stage kernel in this library is written twice, as in the paper's
 * Fig. 3: a host version parallelized over a thread-pool team (the
 * OpenMP stand-in) and a device version written against the SIMT layer
 * (the CUDA/Vulkan stand-in). Map-style kernels share their body via
 * these adapters; cooperative kernels (sort, scan, compaction) have
 * genuinely different host and device algorithms.
 *
 * Both adapters run on the statically-dispatched (templated) tier of the
 * SIMT and thread-pool layers: the kernel body inlines into the block
 * loop and no std::function is constructed on the hot path.
 */

#ifndef BT_KERNELS_EXEC_HPP
#define BT_KERNELS_EXEC_HPP

#include <cstdint>

#include "sched/thread_pool.hpp"
#include "simt/instrument.hpp"
#include "simt/simt.hpp"

namespace bt::kernels {

/** Host-side data-parallel execution over a (possibly null) team. */
struct CpuExec
{
    sched::ThreadPool* pool = nullptr;

    /** fn(i) for every i in [0, n). */
    template <typename Fn>
    void
    forEach(std::int64_t n, Fn&& fn) const
    {
        if (pool && n > 1) {
            pool->parallelForBlocks(
                0, n, [&fn](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        fn(i);
                });
        } else {
            for (std::int64_t i = 0; i < n; ++i)
                fn(i);
        }
    }

    /** fn(lo, hi) once per contiguous chunk of [0, n). */
    template <typename Fn>
    void
    forEachBlock(std::int64_t n, Fn&& fn) const
    {
        if (pool && n > 1) {
            pool->parallelForBlocks(0, n, std::forward<Fn>(fn));
        } else if (n > 0) {
            fn(std::int64_t{0}, n);
        }
    }
};

/**
 * Device-side data-parallel execution: grid-stride SIMT launch.
 *
 * The default configuration is the fast path: templated serial launch in
 * block order. Two knobs select other dispatch strategies with identical
 * results for race-free kernels:
 *  - `pool`    distributes blocks over a host team: the SIMT PU's
 *              parallelism on native pipelines, whose GPU chunks own one;
 *  - `observer` non-null opts this executor into checked execution
 *              (bt::check): launches run serially under instrumentation
 *              and are re-executed under shuffled block orders, ignoring
 *              the pool. Kernels that see a non-null observer must hand
 *              it tracked views of their buffers.
 */
struct GpuExec
{
    int blockDim = 64;
    int maxGrid = 256;
    sched::ThreadPool* pool = nullptr;
    simt::LaunchObserver* observer = nullptr;

    template <typename Fn>
    void
    forEach(std::int64_t n, Fn&& fn) const
    {
        if (n <= 0)
            return;
        const auto cfg = simt::LaunchConfig::cover(n, blockDim, maxGrid);
        auto body = [&](const simt::WorkItem& item) {
            simt::gridStride(item, n, fn);
        };
        if (observer) {
            simt::launchChecked(cfg, body, *observer, n,
                                simt::GeometryStyle::GridStride);
            return;
        }
        if (pool)
            simt::launch(*pool, cfg, body);
        else
            simt::launch(cfg, body);
    }
};

} // namespace bt::kernels

#endif // BT_KERNELS_EXEC_HPP
