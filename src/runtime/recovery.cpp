#include "runtime/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "core/optimizer.hpp"
#include "runtime/pipeline_session.hpp"

namespace bt::runtime {

namespace {

/**
 * Profiled next-best surviving PU for stages [first, last]: the alive
 * PU (excluding @p exclude) minimizing the summed interference-heavy
 * stage time. @return -1 when no alive PU remains.
 */
int
nextBestPu(const platform::PerfModel& model,
           const core::Application& app, int first_stage,
           int last_stage, const std::vector<bool>& alive, int exclude)
{
    const int num_pus = model.soc().numPus();
    BT_ASSERT(alive.size() == static_cast<std::size_t>(num_pus));
    int best = -1;
    double best_time = std::numeric_limits<double>::infinity();
    for (int p = 0; p < num_pus; ++p) {
        if (p == exclude || !alive[static_cast<std::size_t>(p)])
            continue;
        double t = 0.0;
        for (int s = first_stage; s <= last_stage; ++s)
            t += model.interferenceHeavyTime(app.stage(s).work(), p);
        if (t < best_time) {
            best_time = t;
            best = p;
        }
    }
    return best;
}

/**
 * The noiseless profiled table recovery decisions rank against: one
 * interference-heavy model query per (stage, PU) — the mean the
 * BT-Profiler's 30 noisy repetitions converge to.
 */
core::ProfilingTable
modelTable(const platform::PerfModel& model,
           const core::Application& app)
{
    core::ProfilingTable table(stageNames(app), puNames(model.soc()));
    for (int s = 0; s < app.numStages(); ++s)
        for (int p = 0; p < model.soc().numPus(); ++p)
            table.set(s, p,
                      model.interferenceHeavyTime(app.stage(s).work(),
                                                  p));
    return table;
}

/** The planner spec every degradation replan uses: the default one,
 *  so optimize() picks the engine for the survivors' space by the same
 *  rule as every other plan. */
core::PlannerSpec
replanConfig(const platform::SocDescription& soc,
             const std::vector<bool>& alive)
{
    BT_ASSERT(alive.size() == static_cast<std::size_t>(soc.numPus()));
    core::PlannerSpec cfg;
    cfg.numCandidates = 1;
    for (int p = 0; p < soc.numPus(); ++p)
        if (alive[static_cast<std::size_t>(p)])
            cfg.allowedPus.push_back(p);
    BT_ASSERT(!cfg.allowedPus.empty(),
              "cannot re-plan: every PU has dropped out");
    return cfg;
}

} // namespace

core::Schedule
ReplanPlanner::replan(const std::vector<bool>& alive)
{
    const auto& soc = model_.soc();
    if (!table_.has_value()) {
        table_.emplace(modelTable(model_, app_));
        // The power model only reads the SoC description, so the run's
        // own PerfModel serves; predictions are identical to the ones
        // a throwaway Optimizer would compute.
        eval_ = std::make_unique<core::ScheduleEvaluator>(soc, *table_,
                                                          model_);
    }
    core::PlannerSpec spec = replanConfig(soc, alive);
    spec.sharedEvaluator = eval_.get();
    core::Optimizer optimizer(soc, *table_, std::move(spec));
    const auto candidates = optimizer.optimize();
    BT_ASSERT(!candidates.empty(),
              "optimizer found no schedule on surviving PUs");
    return candidates.front().schedule;
}

RecoveryController::RecoveryController(const platform::PerfModel& model,
                                       const core::Application& app,
                                       PipelineSession& session)
    : model_(model), app_(app), session_(session),
      policy_(session.config().recovery),
      injector_(session.config().faults,
                model.soc().seed ^ session.config().noiseSalt),
      replanner_(model, app),
      alive_(static_cast<std::size_t>(model.soc().numPus()), true)
{
    chunkPu_.reserve(static_cast<std::size_t>(session.numChunks()));
    for (int c = 0; c < session.numChunks(); ++c)
        chunkPu_.push_back(session.chunk(c).pu);
}

bool
RecoveryController::transient(int chunk, std::int64_t task, int stage,
                              const Attempt& attempt) const
{
    return injector_.transientFailure(task, stage, puOf(chunk),
                                      attempt.number);
}

double
RecoveryController::straggle(int chunk, std::int64_t task, int stage,
                             const Attempt& attempt, double now)
{
    const double factor
        = injector_.stragglerFactor(task, stage, attempt.number);
    if (factor > 1.0) {
        stats_.stragglers += 1;
        session_.recordEvent(makeFaultEvent(TraceEventKind::Straggler,
                                            task, stage, chunk,
                                            puOf(chunk), now, now,
                                            factor));
    }
    return factor;
}

NextStep
RecoveryController::fail(int chunk, std::int64_t task, int stage,
                         TraceEventKind kind, double t0, double t1,
                         Attempt& attempt)
{
    BT_ASSERT(kind == TraceEventKind::Transient
                  || kind == TraceEventKind::Timeout,
              "fail() takes a transient or a timeout");
    (kind == TraceEventKind::Timeout ? stats_.timeouts
                                     : stats_.transientFaults)
        += 1;
    session_.recordEvent(
        makeFaultEvent(kind, task, stage, chunk, puOf(chunk), t0, t1));

    attempt.number += 1;
    if (attempt.number <= policy_.maxRetries) {
        stats_.retries += 1;
        stats_.backoffSeconds += backoffSeconds(attempt);
        return NextStep::Retry;
    }
    if (!attempt.remapped) {
        const ChunkSpec& spec = session_.chunk(chunk);
        const int target = nextBestPu(model_, app_, spec.firstStage,
                                      spec.lastStage, alive_,
                                      puOf(chunk));
        if (target >= 0) {
            rebind(chunk, target, task, stage, t1);
            attempt = Attempt{0, true};
            return NextStep::Failover;
        }
    }
    abandon(chunk, task, stage, t1);
    return NextStep::Abandon;
}

bool
RecoveryController::stranded(int chunk, std::int64_t task, int stage,
                             double now)
{
    if (alive_[static_cast<std::size_t>(puOf(chunk))])
        return false;
    abandon(chunk, task, stage, now);
    return true;
}

double
RecoveryController::backoffSeconds(const Attempt& attempt) const
{
    return RecoveryPolicy::kBackoffBaseSeconds
        * std::pow(RecoveryPolicy::kBackoffMultiplier, attempt.number - 1);
}

void
RecoveryController::retry(int chunk, std::int64_t task, int stage,
                          const Attempt& attempt, double now)
{
    session_.recordEvent(makeFaultEvent(TraceEventKind::Retry, task,
                                        stage, chunk, puOf(chunk), now,
                                        now, attempt.number));
}

std::vector<int>
RecoveryController::dropout(int pu, double now)
{
    std::vector<int> affected;
    if (!alive_[static_cast<std::size_t>(pu)])
        return affected;
    alive_[static_cast<std::size_t>(pu)] = false;
    stats_.dropouts += 1;
    session_.recordEvent(makeFaultEvent(TraceEventKind::Dropout, -1, -1,
                                        -1, pu, now, now));

    for (int c = 0; c < session_.numChunks(); ++c)
        if (puOf(c) == pu)
            affected.push_back(c);
    // With no survivor there is nothing to re-plan on: the chunks stay
    // bound to the dead PU, and stranded() abandons their attempts.
    if (affected.empty()
        || std::find(alive_.begin(), alive_.end(), true) == alive_.end())
        return affected;

    const auto assign = replanner_.replan(alive_).toAssignment();
    stats_.replans += 1;
    session_.recordEvent(makeFaultEvent(TraceEventKind::Replan, -1, -1,
                                        -1, pu, now, now));
    for (const int c : affected)
        rebind(c,
               assign[static_cast<std::size_t>(
                   session_.chunk(c).firstStage)],
               -1, -1, now);
    return affected;
}

void
RecoveryController::abandon(int chunk, std::int64_t task, int stage,
                            double now)
{
    stats_.unrecovered += 1;
    session_.recordEvent(makeFaultEvent(TraceEventKind::Abandon, task,
                                        stage, chunk, puOf(chunk), now,
                                        now));
    session_.recordFailure(task, stage);
}

void
RecoveryController::rebind(int chunk, int target, std::int64_t task,
                           int stage, double now)
{
    session_.recordEvent(makeFaultEvent(TraceEventKind::Remap, task,
                                        stage, chunk, target, now, now,
                                        puOf(chunk)));
    stats_.remaps += 1;
    chunkPu_[static_cast<std::size_t>(chunk)] = target;
}

} // namespace bt::runtime
