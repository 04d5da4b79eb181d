#include "runtime/pipeline_session.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::runtime {

std::vector<std::string>
puNames(const platform::SocDescription& soc)
{
    std::vector<std::string> names;
    names.reserve(soc.pus.size());
    for (const auto& p : soc.pus)
        names.push_back(p.label);
    return names;
}

namespace {

std::vector<ChunkSpec>
chunkSpecs(const core::Schedule& schedule, int num_stages, int num_pus)
{
    BT_ASSERT(schedule.valid(num_stages, num_pus),
              "schedule does not fit application/device");
    std::vector<ChunkSpec> chunks;
    chunks.reserve(schedule.chunks().size());
    for (const core::Chunk& ch : schedule.chunks())
        chunks.push_back(ChunkSpec{static_cast<int>(chunks.size()),
                                   ch.firstStage, ch.lastStage, ch.pu});
    return chunks;
}

/** Mean end-to-end latency and the steady-state interval over the
 *  sorted post-warmup completions (the identity sort for in-order
 *  dispatch), sorting @p complete_time in place. */
void
finalizeTiming(RunResult& result, std::span<const double> inject_time,
               std::span<double> complete_time, int warmup_tasks)
{
    const int n = result.tasks;
    BT_ASSERT(n > 0
              && complete_time.size() == static_cast<std::size_t>(n));

    // Summed in task order, as mean() over the latencies would.
    double latency_sum = 0.0;
    for (int t = 0; t < n; ++t)
        latency_sum += complete_time[static_cast<std::size_t>(t)]
            - inject_time[static_cast<std::size_t>(t)];
    result.meanLatencySeconds = latency_sum / static_cast<double>(n);

    std::sort(complete_time.begin(), complete_time.end());
    const int w = std::min(warmup_tasks, n - 1);
    if (n - w >= 2) {
        result.taskIntervalSeconds
            = (complete_time[static_cast<std::size_t>(n - 1)]
               - complete_time[static_cast<std::size_t>(w)])
            / static_cast<double>(n - 1 - w);
    } else {
        result.taskIntervalSeconds
            = result.makespanSeconds / static_cast<double>(n);
    }
}

} // namespace

PipelineSession::PipelineSession(const core::Application& app,
                                 const core::Schedule& schedule,
                                 const platform::SocDescription& soc,
                                 const RunConfig& cfg,
                                 std::string backend_name,
                                 bool functional)
    : PipelineSession(app,
                      chunkSpecs(schedule, app.numStages(), soc.numPus()),
                      soc, cfg, std::move(backend_name), functional)
{
}

PipelineSession::PipelineSession(const core::Application& app,
                                 std::vector<ChunkSpec> slots,
                                 const platform::SocDescription& soc,
                                 const RunConfig& cfg,
                                 std::string backend_name,
                                 bool functional)
    : app_(app), soc_(soc), cfg_(cfg), functional_(functional),
      chunks_(std::move(slots)),
      numBuffers_(cfg_.resolveBuffers(numChunks()))
{
    if (functional_) {
        pool_.reserve(static_cast<std::size_t>(numBuffers_));
        for (int b = 0; b < numBuffers_; ++b)
            pool_.push_back(app_.makeTask(0, soc_.seed));
    }
    tokenTask_.assign(static_cast<std::size_t>(numBuffers_), -1);
    injectTime_.assign(static_cast<std::size_t>(cfg_.numTasks), 0.0);
    completeTime_.assign(static_cast<std::size_t>(cfg_.numTasks), 0.0);

    if (cfg_.recordTrace) {
        trace_ = TraceTimeline(
            std::move(backend_name), soc.numPus(),
            std::make_shared<const std::vector<std::string>>(puNames(soc)),
            app.stageNames());
        trace_.setSessionId(cfg_.sessionId);
        trace_.reserve(static_cast<std::size_t>(cfg_.numTasks)
                       * static_cast<std::size_t>(app.numStages()));
    }
}

std::int64_t
PipelineSession::inject(int token, double now)
{
    BT_ASSERT(!exhausted(), "inject past the input stream");
    const std::int64_t task = nextTask_++;
    tokenTask_[static_cast<std::size_t>(token)] = task;
    injectTime_[static_cast<std::size_t>(task)] = now;
    if (functional_)
        app_.refreshTask(*pool_[static_cast<std::size_t>(token)], task,
                         soc_.seed);
    return task;
}

void
PipelineSession::runStage(int chunk_index, int stage, int token,
                          sched::ThreadPool* team,
                          int pu_override) const
{
    if (!functional_)
        return;
    core::KernelCtx ctx{*pool_[static_cast<std::size_t>(token)], team};
    const int pu
        = pu_override >= 0 ? pu_override : chunk(chunk_index).pu;
    app_.stage(stage).run(ctx, soc_.pu(pu).kind);
}

void
PipelineSession::recordFailure(std::int64_t task, int stage)
{
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (validationErrors_.size() < 8)
        validationErrors_.push_back(
            "task " + std::to_string(task) + ": stage "
            + std::to_string(stage) + " abandoned");
}

void
PipelineSession::complete(int token, double now)
{
    const std::int64_t task
        = tokenTask_[static_cast<std::size_t>(token)];
    BT_ASSERT(task >= 0, "completing an unbound token");
    completeTime_[static_cast<std::size_t>(task)] = now;
    if (functional_) {
        const std::string err
            = app_.validate(*pool_[static_cast<std::size_t>(token)]);
        if (!err.empty()) {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (validationErrors_.size() < 8)
                validationErrors_.push_back(
                    "task " + std::to_string(task) + ": " + err);
        }
    }
}

void
PipelineSession::recordEvent(const TraceEvent& event)
{
    if (!cfg_.recordTrace)
        return;
    std::lock_guard<std::mutex> lock(traceMutex_);
    trace_.record(event);
}

RunResult
PipelineSession::finish(double makespan_seconds,
                        std::span<const double> chunk_busy_seconds,
                        bool affinity_applied)
{
    BT_ASSERT(nextTask_ == cfg_.numTasks,
              "pipeline stalled: only ", nextTask_, " of ",
              cfg_.numTasks, " tasks injected");

    RunResult result;
    result.tasks = cfg_.numTasks;
    result.makespanSeconds = makespan_seconds;
    result.affinityApplied = affinity_applied;
    result.validationErrors = std::move(validationErrors_);
    finalizeTiming(result, injectTime_, completeTime_, cfg_.warmupTasks);
    result.chunkBusyFraction.resize(chunk_busy_seconds.size());
    for (std::size_t c = 0; c < chunk_busy_seconds.size(); ++c)
        result.chunkBusyFraction[c] = makespan_seconds > 0.0
            ? chunk_busy_seconds[c] / makespan_seconds
            : 0.0;
    if (cfg_.recordTrace) {
        trace_.sortByStart();
        result.trace = std::move(trace_);
    }
    return result;
}

} // namespace bt::runtime
