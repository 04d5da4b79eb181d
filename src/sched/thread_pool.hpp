/**
 * @file
 * Work-sharing thread pool with an OpenMP-style parallelFor.
 *
 * The paper's CPU kernels use `#pragma omp parallel for`; this pool is the
 * framework's equivalent: a fixed team of long-lived workers (avoiding
 * per-stage thread creation, as the paper notes OpenMP's pool does), an
 * optional affinity set applied to every worker, and a blocking fork-join
 * parallelFor that chunks the iteration space.
 *
 * Dispatch design (see docs/DISPATCH.md): the templated parallelFor /
 * parallelForBlocks instantiate the loop body statically and hand it to
 * the workers as one raw function pointer + context per region, so the
 * only indirect call is per *chunk*, never per index. Workers pull
 * contiguous chunks from an atomic counter (dynamic schedule), which both
 * balances uneven iterations and batches many blocks per wake-up.
 */

#ifndef BT_SCHED_THREAD_POOL_HPP
#define BT_SCHED_THREAD_POOL_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sched/affinity.hpp"

namespace bt::sched {

/**
 * Fixed-size fork-join thread pool.
 *
 * parallelFor blocks the caller until the whole range is processed. The
 * pool is reusable across calls; only one parallel region may be active at
 * a time (matching the dispatcher-thread usage pattern where each chunk
 * owns its team).
 */
class ThreadPool
{
  public:
    /** Statically-instantiated region body: fn(ctx, lo, hi). */
    using RangeFn = void (*)(void* ctx, std::int64_t lo, std::int64_t hi);

    /**
     * Spawn @p num_threads workers. If @p affinity is non-empty every
     * worker binds to that core set (best effort; failures are recorded).
     */
    explicit ThreadPool(int num_threads, CpuSet affinity = CpuSet());

    /** Join and destroy all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Team size, including the calling thread's share of the work. */
    int threads() const { return teamSize; }

    /** Whether every worker successfully bound to the affinity set. */
    bool affinityApplied() const { return boundOk; }

    /**
     * Execute fn(i) for every i in [begin, end), dynamically chunked
     * across the team. Blocks until complete. fn must be safe to call
     * concurrently for distinct indices. The body is dispatched
     * statically; the scheduling boundary is one indirect call per chunk.
     */
    template <typename Fn,
              std::enable_if_t<std::is_invocable_v<Fn&, std::int64_t>,
                               int> = 0>
    void
    parallelFor(std::int64_t begin, std::int64_t end, Fn&& fn)
    {
        parallelForBlocks(begin, end,
                          [&fn](std::int64_t lo, std::int64_t hi) {
                              for (std::int64_t i = lo; i < hi; ++i)
                                  fn(i);
                          });
    }

    /**
     * Block variant: fn(lo, hi) is invoked once per contiguous chunk of
     * the range, letting kernels keep per-chunk accumulators and giving
     * the compiler a tight inner loop to vectorize. Chunks are claimed
     * dynamically, so a caller must not assume any particular chunk
     * geometry - only that chunks are contiguous, disjoint, and cover
     * [begin, end) exactly once.
     */
    template <typename Fn,
              std::enable_if_t<std::is_invocable_v<Fn&, std::int64_t,
                                                   std::int64_t>,
                               int> = 0>
    void
    parallelForBlocks(std::int64_t begin, std::int64_t end, Fn&& fn)
    {
        using F = std::remove_reference_t<Fn>;
        runRegion(begin, end,
                  [](void* ctx, std::int64_t lo, std::int64_t hi) {
                      (*static_cast<F*>(ctx))(lo, hi);
                  },
                  const_cast<void*>(
                      static_cast<const void*>(std::addressof(fn))));
    }

  private:
    void workerLoop(int worker_id);

    /**
     * Run one fork-join region: wake the team, have everyone (caller
     * included) pull chunks of ~`chunk` indices from the shared atomic
     * cursor, and return once the range is exhausted and all workers have
     * quiesced.
     */
    void runRegion(std::int64_t begin, std::int64_t end, RangeFn fn,
                   void* ctx);

    /** Chunk size heuristic: ~8 chunks per team member, at least 1. */
    std::int64_t
    chunkSizeFor(std::int64_t n) const
    {
        return std::max<std::int64_t>(
            1, n / (static_cast<std::int64_t>(teamSize) * 8));
    }

    int teamSize;
    CpuSet pinSet;
    std::atomic<bool> boundOk{true};
    std::atomic<bool> stopping{false};

    // Fork-join state. Region parameters are published under mtx; the
    // chunk cursor is the only contended word while a region runs.
    std::mutex mtx;
    std::condition_variable workReady;
    std::condition_variable workDone;
    std::uint64_t generation = 0; ///< bumped per parallel region
    int doneWorkers = 0;          ///< workers finished in this region
    std::atomic<std::int64_t> nextChunk{0}; ///< next unclaimed index
    std::int64_t regionEnd = 0;
    std::int64_t regionChunk = 1;
    RangeFn regionFn = nullptr;
    void* regionCtx = nullptr;

    std::vector<std::thread> workers;
};

} // namespace bt::sched

#endif // BT_SCHED_THREAD_POOL_HPP
