#include "runtime/pipeline_session.hpp"

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

std::vector<std::string>
stageNames(const core::Application& app)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(app.numStages()));
    for (const auto& s : app.stages())
        names.push_back(s.name());
    return names;
}

PipelineSession::PipelineSession(const core::Application& app,
                                 const core::Schedule& schedule,
                                 const platform::SocDescription& soc,
                                 const RunConfig& cfg,
                                 std::string backend_name,
                                 bool functional)
    : app_(app), soc_(soc), cfg_(cfg), functional_(functional)
{
    BT_ASSERT(schedule.valid(app.numStages(), soc.numPus()),
              "schedule does not fit application/device");

    const int num_chunks = schedule.numChunks();
    chunks_.reserve(static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c) {
        const core::Chunk& ch
            = schedule.chunks()[static_cast<std::size_t>(c)];
        chunks_.push_back(
            ChunkSpec{c, ch.firstStage, ch.lastStage, ch.pu});
    }
    numBuffers_ = cfg_.resolveBuffers(num_chunks);

    if (functional_) {
        pool_.reserve(static_cast<std::size_t>(numBuffers_));
        for (int b = 0; b < numBuffers_; ++b)
            pool_.push_back(app_.makeTask(0, soc_.seed));
    }
    tokenTask_.assign(static_cast<std::size_t>(numBuffers_), -1);
    injectTime_.assign(static_cast<std::size_t>(cfg_.numTasks), 0.0);
    completeTime_.assign(static_cast<std::size_t>(cfg_.numTasks), 0.0);

    if (cfg_.recordTrace) {
        trace_ = TraceTimeline(std::move(backend_name), soc.numPus(),
                               puNames(soc), stageNames(app));
        trace_.setSessionId(cfg_.sessionId);
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
            + std::to_string(stage) + " abandoned after retries");
}

void
PipelineSession::complete(int token, double now)
{
    const std::int64_t task
        = tokenTask_[static_cast<std::size_t>(token)];
    BT_ASSERT(task >= 0, "completing an unbound token");
    completeTime_[static_cast<std::size_t>(task)] = now;
    if (functional_ && cfg_.validate) {
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
PipelineSession::recordEvent(TraceEvent event)
{
    if (!cfg_.recordTrace)
        return;
    std::lock_guard<std::mutex> lock(traceMutex_);
    trace_.record(std::move(event));
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
    finalizeTiming(result, injectTime_, completeTime_, cfg_.warmupTasks,
                   /*sort_completions=*/false);
    finalizeBusyFractions(result, chunk_busy_seconds);
    if (cfg_.recordTrace) {
        trace_.sortByStart();
        result.trace = std::move(trace_);
    }
    return result;
}

} // namespace bt::runtime
