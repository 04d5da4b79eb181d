#include "sched/thread_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::sched {

ThreadPool::ThreadPool(int num_threads, CpuSet affinity)
    : teamSize(std::max(1, num_threads)), pinSet(std::move(affinity))
{
    // The calling thread participates in every region, so spawn one fewer
    // worker than the team size.
    const int helpers = teamSize - 1;
    workers.reserve(static_cast<std::size_t>(helpers));
    for (int w = 0; w < helpers; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });

    if (!pinSet.empty() && !bindCurrentThread(pinSet))
        boundOk.store(false, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping.store(true, std::memory_order_relaxed);
        ++generation;
    }
    workReady.notify_all();
    for (auto& t : workers)
        t.join();
}

void
ThreadPool::workerLoop(int worker_id)
{
    (void)worker_id;
    if (!pinSet.empty() && !bindCurrentThread(pinSet))
        boundOk.store(false, std::memory_order_relaxed);

    std::uint64_t seen = 0;
    while (true) {
        RangeFn fn = nullptr;
        void* ctx = nullptr;
        std::int64_t end = 0, chunk = 1;
        {
            std::unique_lock<std::mutex> lock(mtx);
            workReady.wait(lock, [&] {
                return generation != seen
                    || stopping.load(std::memory_order_relaxed);
            });
            if (stopping.load(std::memory_order_relaxed))
                return;
            seen = generation;
            fn = regionFn;
            ctx = regionCtx;
            end = regionEnd;
            chunk = regionChunk;
        }

        if (fn) {
            // Dynamic schedule: claim contiguous chunks until the range
            // is dry. One atomic RMW and one indirect call per chunk.
            for (;;) {
                const std::int64_t lo = nextChunk.fetch_add(
                    chunk, std::memory_order_relaxed);
                if (lo >= end)
                    break;
                fn(ctx, lo, std::min(lo + chunk, end));
            }
        }

        {
            std::lock_guard<std::mutex> lock(mtx);
            ++doneWorkers;
            workDone.notify_one();
        }
    }
}

void
ThreadPool::runRegion(std::int64_t begin, std::int64_t end, RangeFn fn,
                      void* ctx)
{
    BT_ASSERT(begin <= end, "inverted parallelFor range");
    if (begin == end)
        return;

    const std::int64_t chunk = chunkSizeFor(end - begin);
    if (workers.empty() || end - begin <= chunk) {
        fn(ctx, begin, end);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mtx);
        regionFn = fn;
        regionCtx = ctx;
        regionEnd = end;
        regionChunk = chunk;
        nextChunk.store(begin, std::memory_order_relaxed);
        doneWorkers = 0;
        ++generation;
    }
    workReady.notify_all();

    // The calling thread pulls chunks like any worker.
    for (;;) {
        const std::int64_t lo
            = nextChunk.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end)
            break;
        fn(ctx, lo, std::min(lo + chunk, end));
    }

    std::unique_lock<std::mutex> lock(mtx);
    workDone.wait(lock, [&] {
        return doneWorkers == static_cast<int>(workers.size());
    });
    regionFn = nullptr;
    regionCtx = nullptr;
}

} // namespace bt::sched
