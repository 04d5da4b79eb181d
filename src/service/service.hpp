/**
 * @file
 * bt::Service - a multi-tenant serving front end over the framework.
 *
 * bt::Framework plans and runs exactly one pipeline per call; a server
 * faces a *stream* of inference requests from many concurrent sessions
 * sharing one SoC. Service holds one Framework, plans through its
 * phases (profile, optimize, autotune), and adds the three pieces that
 * turn the planner + runtime into a serving system:
 *
 *  1. an admission front end: a bounded queue accepting requests from
 *     any thread (overflow = dropped, unknown application = rejected,
 *     both counted);
 *  2. a worker pool co-scheduling pipelines over the shared SoC model,
 *     with per-tenant PU leases (lease.hpp) derived from the ambient
 *     load and fed through the optimizer's allowedPus hook, so
 *     co-runners partition the PU classes instead of colliding;
 *  3. a concurrent schedule cache (schedule_cache.hpp) keyed by
 *     (application, platform, load bucket, lease, planner fingerprint)
 *     that takes the profile -> optimize planner entirely off the
 *     request hot path: plan once on miss, serve every subsequent
 *     request from a reader-locked shard.
 *
 * Per-request execution runs on the virtual-time backend against the
 * interference-aware device model; each run's TraceTimeline is tagged
 * with its session id and merged into one service-wide timeline, so
 * concurrent sessions stay distinguishable in the Chrome export.
 * See docs/SERVICE.md for architecture and bench methodology.
 */

#ifndef BT_SERVICE_SERVICE_HPP
#define BT_SERVICE_SERVICE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/application.hpp"
#include "flow/framework.hpp"
#include "lint/diagnostic.hpp"
#include "runtime/run_types.hpp"
#include "runtime/virtual_backend.hpp"
#include "service/lease.hpp"
#include "service/schedule_cache.hpp"

namespace bt::service {

/** Outcome of one served request, delivered to its onDone callback. */
struct RequestResult
{
    std::int64_t id = -1; ///< admission order, service-wide
    int session = -1;
    bool ok = false; ///< executed and validated clean

    bool cacheHit = false; ///< schedule came from the cache
    bool planned = false;  ///< this request paid a planner run

    double queueSeconds = 0.0;   ///< admission -> worker pickup (wall)
    double serviceSeconds = 0.0; ///< pickup -> completion (wall)
    double latencySeconds = 0.0; ///< admission -> completion (wall)

    core::Schedule schedule; ///< what actually ran
    runtime::RunResult run;  ///< unified result of the pipeline run
};

/** One inference request from a tenant session. */
struct Request
{
    int session = 0;  ///< tenant session id (tags the trace)
    std::string app;  ///< registered Application name

    /** Invoked on the worker thread when the request completes. */
    std::function<void(const RequestResult&)> onDone;
};

/** Per-tenant serving options (see registerApp). */
struct TenantOptions
{
    /**
     * Real-time tenant: its leased slices are throttle-protected. It
     * plans and runs as if uncontended (ambient bucket 0) - the
     * service reserves its share of the C6 slack - while best-effort
     * co-tenants absorb the degradation its traffic causes.
     */
    bool realTime = false;
};

/** Every serving knob, one struct. */
struct ServiceConfig
{
    int workers = 4;        ///< co-scheduled pipeline executors
    int queueCapacity = 256; ///< admission bound; overflow = dropped

    /** Ambient-load quantization levels for the cache key / leases. */
    int loadBuckets = 4;

    /**
     * Contention-aware leases: when tenants share the SoC (more than
     * one lease group), each plan is budgeted an equal share of the
     * DRAM roofline (the C6 constraint) and predicted under its
     * co-runners' ambient bandwidth, instead of pretending disjoint
     * PU leases make tenants independent. Single-group operation is
     * bit-identical either way.
     */
    bool contentionAware = true;

    /** Serve plans from the schedule cache (false = plan per request,
     *  the cold-path baseline the load bench compares against). */
    bool cacheEnabled = true;
    ScheduleCacheConfig cache;

    core::ProfilerConfig profiler;
    core::PlannerSpec optimizer;

    /** Per-request execution knobs (tasks per request, noise salt,
     *  faults...). recordTrace/sessionId are managed by the service. */
    runtime::RunConfig run;

    /** Run the measurement-driven autotuning level when planning
     *  (costlier cold path; candidates are executed fault-free, not
     *  just ranked). */
    bool autotune = false;

    /** Merge per-request traces (up to maxTracedRequests) into the
     *  report's service-wide timeline. */
    bool collectTraces = false;
    std::size_t maxTracedRequests = 64;
};

/** Aggregate serving statistics, snapshot by Service::report(). */
struct ServiceReport
{
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t dropped = 0;  ///< admission-queue overflow
    std::int64_t rejected = 0; ///< named an unregistered application
    std::int64_t failed = 0;   ///< completed but invalid outputs
    /** Applications refused by registerApp: their static lint found
     *  errors, so they never became tenants. */
    std::int64_t tenantsRejected = 0;

    double wallSeconds = 0.0;    ///< start() to stop() (or to now)
    double throughputRps = 0.0;  ///< completed / wallSeconds

    double p50Ms = 0.0; ///< median end-to-end request latency
    double p99Ms = 0.0;
    double meanMs = 0.0;
    double maxMs = 0.0;

    std::int64_t plans = 0;     ///< planner invocations
    double planSeconds = 0.0;   ///< total wall time spent planning

    /** Plans the optimizer annealed because the tenant's schedule
     *  space was too large to enumerate. */
    std::int64_t annealedFallbacks = 0;

    ScheduleCacheStats cache;

    /** Requests completed per session id. */
    std::map<int, std::int64_t> perSession;

    /** Merged session-tagged timeline (collectTraces runs only). */
    runtime::TraceTimeline trace;

    /** Machine-readable form (counters + cache stats). */
    void writeJson(std::ostream& os) const;
};

/**
 * The serving front end. Lifecycle: construct over a device, register
 * applications, start(), submit() from any thread, drain()/stop(),
 * report(). A stopped service can be start()ed again (counters and the
 * cache persist across rounds).
 */
class Service
{
  public:
    explicit Service(const platform::SocDescription& soc,
                     ServiceConfig cfg = {});
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /**
     * Register a tenant workload; not allowed while running. The
     * application is statically linted at admission (bt::lint): a
     * tenant whose pipeline, planner spec or run config lints with
     * errors is refused - returns false, counts toward the report's
     * tenantsRejected, and never serves. Warnings admit.
     */
    bool registerApp(core::Application app);

    /** Register with per-tenant options (e.g. a real-time tenant). */
    bool registerApp(core::Application app, TenantOptions opts);

    /** The admission lint registerApp would run for (@p app, @p opts):
     *  errors there mean registerApp(app, opts) returns false. */
    lint::Report lintTenant(const core::Application& app,
                            TenantOptions opts = {}) const;

    /** Spawn the worker pool and begin accepting requests. */
    void start();

    /**
     * Admit @p req (thread-safe, non-blocking). False = refused and
     * counted: dropped when the service is stopped or the queue is
     * full, rejected when @p req names no registered application.
     */
    bool submit(Request req);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    /** drain(), then join the worker pool. Idempotent. */
    void stop();

    bool running() const { return running_; }

    /** Snapshot of the aggregate statistics (any time, any thread). */
    ServiceReport report() const;

    const ScheduleCache& cache() const { return cache_; }
    const platform::PerfModel& model() const { return flow_.model(); }

    /**
     * The plan the service would use for (app, bucket, group, groups):
     * Framework's profile -> optimize (-> autotune) phases under the
     * key's planner spec, without touching the cache or any counter.
     * Lets tests verify cached entries are byte-identical to fresh
     * plans.
     */
    CachedPlan freshPlan(const std::string& app_name, int load_bucket,
                         int lease_group, int lease_groups) const;

    /** The cache key the service derives for that same tuple. */
    ScheduleKey keyFor(const std::string& app_name, int load_bucket,
                       int lease_group, int lease_groups) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        Request req;
        std::int64_t id = 0;
        Clock::time_point admitted;
    };

    void workerLoop(int worker_index);
    void serve(Pending pending, int worker_index);
    const core::Application& appOf(const std::string& name) const;
    bool tenantRealTime(const std::string& app_name) const;

    /**
     * Deterministic equal-share ambient policy: the DRAM demand a
     * tenant of @p app_name should assume its co-runners draw when
     * the leases are partitioned into @p groups. Roofline * (n-1)/n
     * for best-effort tenants sharing with n-1 others; 0 for a
     * real-time tenant, a single group, or contentionAware = false.
     */
    double ambientFor(const std::string& app_name, int groups) const;

    /**
     * The exact planner spec a fresh plan of (app, group, groups)
     * would run: the base config plus the per-plan lease and
     * contention knobs. keyFor() fingerprints this spec; with the app
     * and lease in the key fixing the schedule space, and so the
     * engine optimize() picks, the key contract - one key, one
     * byte-identical plan - holds.
     */
    core::PlannerSpec plannerSpecFor(const std::string& app_name,
                                     int lease_group,
                                     int lease_groups) const;

    ServiceConfig cfg_;
    Framework flow_; ///< the planner: profile, optimize, autotune
    runtime::VirtualTimeBackend backend_; ///< per-request runs
    PuLeaseManager leases_;

    std::unordered_map<std::string, core::Application> apps_;
    std::unordered_map<std::string, TenantOptions> tenantOpts_;

    ScheduleCache cache_;

    // Admission queue.
    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::condition_variable idleCv_;
    std::deque<Pending> queue_;
    int busyWorkers_ = 0;
    bool stopping_ = false;

    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::atomic<int> inflight_{0};
    std::atomic<std::int64_t> nextId_{0};
    std::atomic<std::int64_t> submitted_{0};
    std::atomic<std::int64_t> dropped_{0};
    std::atomic<std::int64_t> rejected_{0};
    std::atomic<std::int64_t> completed_{0};
    std::atomic<std::int64_t> failed_{0};
    std::atomic<std::int64_t> tenantsRejected_{0};
    std::atomic<std::int64_t> plans_{0};
    std::atomic<std::int64_t> annealedFallbacks_{0};

    Clock::time_point startTime_;
    double wallSecondsStopped_ = 0.0;

    // Latency / per-session / plan-cost accounting.
    mutable std::mutex statsMutex_;
    std::vector<double> latencies_;
    std::map<int, std::int64_t> perSession_;
    double planSeconds_ = 0.0;

    // Merged service-wide timeline (collectTraces).
    mutable std::mutex traceMutex_;
    runtime::TraceTimeline trace_;
    std::size_t tracedRequests_ = 0;
};

} // namespace bt::service

#endif // BT_SERVICE_SERVICE_HPP
