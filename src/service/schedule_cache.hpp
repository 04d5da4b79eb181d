/**
 * @file
 * Concurrent schedule cache for the multi-tenant serving front end.
 *
 * Planning a deployment (profile -> optimize) costs milliseconds;
 * executing one request costs tens of microseconds. A server that plans
 * per request therefore spends > 90% of its time in the planner. The
 * cache takes the planner entirely off the request hot path: plans are
 * keyed by (application, platform, ambient-load bucket, PU lease,
 * planner fingerprint) - everything that determines the planner's
 * output - so a key hit is guaranteed byte-identical to a fresh plan
 * (the planner is deterministic; tests enforce the identity).
 *
 * Concurrency: the key space is split across shards, each guarded by a
 * reader-writer lock. Lookups take the shared lock and only touch an
 * atomic recency stamp, so the all-hits steady state of a warm server
 * scales with reader parallelism. Capacity is bounded per shard with
 * least-recently-used eviction (exact within a shard: the per-entry
 * stamp is a global atomic tick, and the evictor scans the shard for
 * the minimum). Hit/miss/eviction counters are lock-free atomics,
 * surfaced in the service report and the load-generator bench.
 */

#ifndef BT_SERVICE_SCHEDULE_CACHE_HPP
#define BT_SERVICE_SCHEDULE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/schedule.hpp"

namespace bt::service {

/** Everything that determines which schedule the planner returns. */
struct ScheduleKey
{
    std::string app;      ///< Application::name() of the tenant workload
    std::string platform; ///< SocDescription::name of the device
    int loadBucket = 0;   ///< quantized ambient load (see lease.hpp)
    int lease = 0;        ///< PU-lease group the plan was made for
    int leaseGroups = 1;  ///< co-runner partition count at that load

    /** Quantized co-runner DRAM-demand bucket the plan targets (0 =
     *  uncontended / real-time tenant); extends the key so
     *  contention-aware plans stay byte-identical per key. */
    int bandwidthBucket = 0;

    /** core::PlannerSpec::fingerprint() of the planner knobs. */
    std::uint64_t plannerFingerprint = 0;

    bool operator==(const ScheduleKey&) const = default;
};

struct ScheduleKeyHash
{
    std::size_t operator()(const ScheduleKey& k) const;
};

/** One cached planner output. */
struct CachedPlan
{
    core::Schedule schedule;
    double predictedLatencySeconds = 0.0;
    /** Aggregate DRAM demand (GB/s) the plan draws; what co-tenant
     *  budgets are accounted against. */
    double predictedDemandGbps = 0.0;
    /** The optimizer annealed this plan: the tenant's schedule space
     *  was too large to enumerate. */
    bool annealed = false;
    double planWallSeconds = 0.0; ///< wall time the planner spent
};

/** Cache sizing knobs. */
struct ScheduleCacheConfig
{
    /** Whole-cache entry bound (rounded up to a multiple of shards). */
    std::size_t capacity = 64;

    /** Lock shards; higher = more reader parallelism, coarser LRU. */
    int shards = 8;
};

/** Lock-free counter snapshot (monotonic since construction). */
struct ScheduleCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;

    /** Insertions that lost a plan-once race (entry already present). */
    std::uint64_t racedInsertions = 0;

    std::size_t size = 0; ///< entries resident right now

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total > 0
            ? static_cast<double>(hits) / static_cast<double>(total)
            : 0.0;
    }
};

/** Sharded, bounded, LRU-evicting concurrent map of planner outputs. */
class ScheduleCache
{
  public:
    explicit ScheduleCache(ScheduleCacheConfig cfg = {});

    /** Hit: a copy of the cached plan (recency updated). Miss: empty. */
    std::optional<CachedPlan> lookup(const ScheduleKey& key);

    /**
     * Insert a freshly planned entry, evicting the shard's LRU entry if
     * the shard is full. Returns false (and keeps the incumbent) when
     * another thread planned the same key first - both plans are
     * byte-identical by the key contract, so first-writer-wins loses
     * nothing.
     */
    bool insert(const ScheduleKey& key, CachedPlan plan);

    ScheduleCacheStats stats() const;
    std::size_t size() const;

    /** Every resident (key, plan) pair; for reports and tests. */
    std::vector<std::pair<ScheduleKey, CachedPlan>> snapshot() const;

    std::size_t capacity() const { return shardCapacity_ * shards_.size(); }

  private:
    struct Entry
    {
        CachedPlan plan;
        std::atomic<std::uint64_t> lastUse{0};
    };

    struct Shard
    {
        mutable std::shared_mutex mutex;
        std::unordered_map<ScheduleKey, std::unique_ptr<Entry>,
                           ScheduleKeyHash>
            map;
    };

    Shard& shardFor(const ScheduleKey& key);

    std::size_t shardCapacity_;
    std::vector<Shard> shards_;

    std::atomic<std::uint64_t> tick_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> insertions_{0};
    std::atomic<std::uint64_t> raced_{0};
};

} // namespace bt::service

#endif // BT_SERVICE_SCHEDULE_CACHE_HPP
