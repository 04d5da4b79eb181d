#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "lint/lint.hpp"

namespace bt::service {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

void
ServiceReport::writeJson(std::ostream& os) const
{
    json::Writer w(os);
    w.beginObject().member("submitted", submitted);
    w.member("completed", completed).member("dropped", dropped);
    w.member("rejected", rejected).member("failed", failed);
    w.member("tenants_rejected", tenantsRejected);
    w.member("wall_seconds", wallSeconds);
    w.member("throughput_rps", throughputRps);
    w.key("latency_ms").beginObject().member("p50", p50Ms);
    w.member("p99", p99Ms).member("mean", meanMs).member("max", maxMs);
    w.endObject().member("plans", plans);
    w.member("plan_seconds", planSeconds).key("planner").beginObject();
    w.member("annealed_fallbacks", annealedFallbacks).endObject();
    w.key("cache").beginObject().member("hits", cache.hits);
    w.member("misses", cache.misses).member("evictions", cache.evictions);
    w.member("insertions", cache.insertions);
    w.member("raced_insertions", cache.racedInsertions);
    w.member("size", cache.size).member("hit_rate", cache.hitRate());
    w.endObject().key("sessions").beginObject();
    for (const auto& [session, count] : perSession)
        w.member(std::to_string(session), count);
    w.endObject().endObject();
}

Service::Service(const platform::SocDescription& soc, ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      flow_(soc, {.profiler = cfg_.profiler,
                  .optimizer = cfg_.optimizer,
                  .run = cfg_.run,
                  .autotune = cfg_.autotune}),
      backend_(flow_.model()),
      leases_(soc, std::min(std::max(cfg_.workers, 1), soc.numPus())),
      cache_(cfg_.cache)
{
    BT_ASSERT(cfg_.workers >= 1, "service needs at least one worker");
    BT_ASSERT(cfg_.queueCapacity >= 1, "admission queue needs capacity");
    BT_ASSERT(cfg_.loadBuckets >= 1, "need at least one load bucket");
}

Service::~Service()
{
    stop();
}

bool
Service::registerApp(core::Application app)
{
    return registerApp(std::move(app), TenantOptions{});
}

lint::Report
Service::lintTenant(const core::Application& app,
                    TenantOptions opts) const
{
    lint::TenantLintInput tenant;
    tenant.realTime = opts.realTime;
    tenant.contentionAware = cfg_.contentionAware;
    tenant.leaseGroups = leases_.maxGroups();
    return lint::lintTenant(model().soc(), app, cfg_.optimizer, cfg_.run,
                            tenant);
}

bool
Service::registerApp(core::Application app, TenantOptions opts)
{
    BT_ASSERT(!running_, "cannot register apps on a running service");
    const lint::Report report = lintTenant(app, opts);
    if (report.errors() > 0) {
        tenantsRejected_.fetch_add(1, std::memory_order_relaxed);
        warn("tenant '", app.name(),
             "' refused at admission - static lint found errors: ",
             report.summary());
        return false;
    }
    std::string name = app.name();
    tenantOpts_.insert_or_assign(name, opts);
    apps_.insert_or_assign(std::move(name), std::move(app));
    return true;
}

bool
Service::tenantRealTime(const std::string& app_name) const
{
    const auto it = tenantOpts_.find(app_name);
    return it != tenantOpts_.end() && it->second.realTime;
}

double
Service::ambientFor(const std::string& app_name, int groups) const
{
    if (!cfg_.contentionAware || groups <= 1
        || tenantRealTime(app_name))
        return 0.0;
    const double roofline = model().contention().rooflineGbps();
    return roofline * static_cast<double>(groups - 1)
        / static_cast<double>(groups);
}

const core::Application&
Service::appOf(const std::string& name) const
{
    const auto it = apps_.find(name);
    BT_ASSERT(it != apps_.end(), "request names an unregistered app");
    return it->second;
}

ScheduleKey
Service::keyFor(const std::string& app_name, int load_bucket,
                int lease_group, int lease_groups) const
{
    ScheduleKey key;
    key.app = app_name;
    key.platform = model().soc().name;
    key.loadBucket = load_bucket;
    key.lease = lease_group;
    key.leaseGroups = lease_groups;
    key.bandwidthBucket = model().contention().bucketOf(
        ambientFor(app_name, lease_groups));
    key.plannerFingerprint
        = plannerSpecFor(app_name, lease_group, lease_groups)
              .fingerprint();
    return key;
}

core::PlannerSpec
Service::plannerSpecFor(const std::string& app_name, int lease_group,
                        int lease_groups) const
{
    core::PlannerSpec spec = cfg_.optimizer;
    spec.allowedPus = leases_.lease(lease_group, lease_groups);

    // Contention-aware co-placement: with n lease groups sharing the
    // SoC, each tenant's plan gets an equal 1/n share of the DRAM
    // roofline as its C6 budget and is predicted under the remaining
    // (n-1)/n as ambient demand. A real-time tenant keeps the budget
    // but plans uncontended - its slices are throttle-protected and
    // the co-tenants absorb the degradation. (The budget caps what a
    // tenant *draws*; the ambient a co-tenant *feels* is weighted by
    // the model's contendedDemandWeight inside the slowdown fold.)
    if (cfg_.contentionAware && lease_groups > 1) {
        const double roofline = model().contention().rooflineGbps();
        spec.contention.budgetGbps
            = roofline / static_cast<double>(lease_groups);
        spec.contention.realTime = tenantRealTime(app_name);
        spec.contention.ambientGbps
            = ambientFor(app_name, lease_groups);
    }
    return spec;
}

CachedPlan
Service::freshPlan(const std::string& app_name, int /*load_bucket*/,
                   int lease_group, int lease_groups) const
{
    const auto t0 = Clock::now();
    const core::Application& app = appOf(app_name);
    const core::ProfileResult profile = flow_.profile(app);
    const OptimizeResult optimized = flow_.optimize(
        profile, plannerSpecFor(app_name, lease_group, lease_groups));

    core::Candidate best = optimized.candidates.front();
    double latency = best.predictedLatency;
    if (cfg_.autotune) {
        const core::TuningReport tuning
            = flow_.autotune(app, optimized.candidates);
        best = tuning.best().candidate;
        latency = tuning.best().measuredLatency;
    }

    CachedPlan plan;
    plan.schedule = best.schedule;
    plan.predictedLatencySeconds = latency;
    plan.predictedDemandGbps = best.predictedDemandGbps;
    plan.annealed
        = optimized.stats.engine == core::PlannerEngine::Annealed;
    plan.planWallSeconds = secondsBetween(t0, Clock::now());
    return plan;
}

void
Service::start()
{
    BT_ASSERT(!running_, "service already running");
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = false;
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        startTime_ = Clock::now();
    }
    running_ = true;
    workers_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

bool
Service::submit(Request req)
{
    if (!running_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // registerApp refuses to run on a started service, so apps_ is
    // read-only here and needs no lock.
    if (apps_.find(req.app) == apps_.end()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (static_cast<int>(queue_.size()) >= cfg_.queueCapacity) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        Pending pending;
        pending.req = std::move(req);
        pending.id = nextId_.fetch_add(1, std::memory_order_relaxed);
        pending.admitted = Clock::now();
        queue_.push_back(std::move(pending));
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    queueCv_.notify_one();
    return true;
}

void
Service::drain()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && busyWorkers_ == 0; });
}

void
Service::stop()
{
    if (!running_)
        return;
    drain();
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
    workers_.clear();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        wallSecondsStopped_ += secondsBetween(startTime_, Clock::now());
    }
    running_ = false;
}

void
Service::workerLoop(int worker_index)
{
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                BT_ASSERT(stopping_);
                return;
            }
            pending = std::move(queue_.front());
            queue_.pop_front();
            ++busyWorkers_;
        }

        serve(std::move(pending), worker_index);

        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            --busyWorkers_;
            if (queue_.empty() && busyWorkers_ == 0)
                idleCv_.notify_all();
        }
    }
}

void
Service::serve(Pending pending, int worker_index)
{
    const auto pickup = Clock::now();
    const core::Application& app = appOf(pending.req.app);

    // Ambient load -> lease partition -> cache key. The bucket is
    // quantized (lease.hpp) so nearby load levels share cache entries.
    const int inflight = inflight_.load(std::memory_order_relaxed);
    const int bucket
        = quantizeLoad(inflight, cfg_.workers, cfg_.loadBuckets);
    const int groups = leases_.groupsAt(bucket);
    const int group = worker_index % groups;
    const ScheduleKey key = keyFor(app.name(), bucket, group, groups);

    CachedPlan plan;
    bool hit = false;
    bool planned = false;
    if (cfg_.cacheEnabled) {
        if (auto cached = cache_.lookup(key)) {
            plan = std::move(*cached);
            hit = true;
        }
    }
    if (!hit) {
        // Plan on the miss path; first writer wins the insert race
        // (both plans are byte-identical by the key contract).
        plan = freshPlan(app.name(), bucket, group, groups);
        planned = true;
        plans_.fetch_add(1, std::memory_order_relaxed);
        if (plan.annealed)
            annealedFallbacks_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            planSeconds_ += plan.planWallSeconds;
        }
        if (cfg_.cacheEnabled)
            cache_.insert(key, plan);
    }

    bool recordTrace = false;
    if (cfg_.collectTraces) {
        std::lock_guard<std::mutex> lock(traceMutex_);
        if (tracedRequests_ < cfg_.maxTracedRequests) {
            ++tracedRequests_;
            recordTrace = true;
        }
    }

    runtime::RunConfig rcfg = cfg_.run;
    rcfg.recordTrace = recordTrace;
    rcfg.sessionId = pending.req.session;
    // Execute under the same co-runner demand the plan was made for
    // (0 for real-time tenants: their slices are protected).
    rcfg.ambientBandwidthGbps = ambientFor(app.name(), groups);

    const runtime::RunResult run
        = backend_.run(app, plan.schedule, rcfg);
    const auto done = Clock::now();
    const bool ok = run.validationErrors.empty();

    if (recordTrace) {
        Clock::time_point epoch;
        {
            std::lock_guard<std::mutex> statsLock(statsMutex_);
            epoch = startTime_;
        }
        std::lock_guard<std::mutex> lock(traceMutex_);
        trace_.merge(run.trace, secondsBetween(epoch, pickup));
    }

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        latencies_.push_back(secondsBetween(pending.admitted, done));
        ++perSession_[pending.req.session];
    }

    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!ok)
        failed_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);

    if (!pending.req.onDone)
        return;
    RequestResult result;
    result.id = pending.id;
    result.session = pending.req.session;
    result.ok = ok;
    result.cacheHit = hit;
    result.planned = planned;
    result.queueSeconds = secondsBetween(pending.admitted, pickup);
    result.serviceSeconds = secondsBetween(pickup, done);
    result.latencySeconds = secondsBetween(pending.admitted, done);
    result.schedule = plan.schedule;
    result.run = run;
    pending.req.onDone(result);
}

ServiceReport
Service::report() const
{
    ServiceReport report;
    report.submitted = submitted_.load(std::memory_order_relaxed);
    report.completed = completed_.load(std::memory_order_relaxed);
    report.dropped = dropped_.load(std::memory_order_relaxed);
    report.rejected = rejected_.load(std::memory_order_relaxed);
    report.failed = failed_.load(std::memory_order_relaxed);
    report.tenantsRejected
        = tenantsRejected_.load(std::memory_order_relaxed);
    report.plans = plans_.load(std::memory_order_relaxed);
    report.annealedFallbacks
        = annealedFallbacks_.load(std::memory_order_relaxed);
    report.cache = cache_.stats();

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        report.wallSeconds = wallSecondsStopped_;
        if (running_)
            report.wallSeconds
                += secondsBetween(startTime_, Clock::now());
        report.planSeconds = planSeconds_;
        report.perSession = perSession_;
        if (!latencies_.empty()) {
            report.p50Ms = percentile(latencies_, 50.0) * 1e3;
            report.p99Ms = percentile(latencies_, 99.0) * 1e3;
            report.meanMs = mean(latencies_) * 1e3;
            report.maxMs
                = *std::max_element(latencies_.begin(), latencies_.end())
                * 1e3;
        }
    }
    if (report.wallSeconds > 0.0)
        report.throughputRps
            = static_cast<double>(report.completed) / report.wallSeconds;

    {
        std::lock_guard<std::mutex> lock(traceMutex_);
        report.trace = trace_;
    }
    return report;
}

} // namespace bt::service
