/**
 * @file
 * The fault-recovery policy, owned once: RecoveryController makes every
 * recovery decision for both time backends, which add only their clock
 * (DES timers and the watchdog, or sleeps and deadline polling).
 *
 * Failover ranks surviving PUs by the same quantity the BT-Profiler
 * measures (the interference-heavy stage time of the performance
 * model), so "profiled next-best PU" means exactly what it would on a
 * real device with a cached profiling table. A PU dropout goes further:
 * it rebuilds that table restricted to surviving PUs and asks the
 * existing Optimizer for the best remaining schedule, then rebinds the
 * dead chunks of the deployed geometry to the PUs the new plan assigns
 * their stages (chunk boundaries are frozen at deployment — the
 * multi-buffer pool is already allocated against them). Once no PU
 * survives, every later attempt is abandoned instead.
 */

#ifndef BT_RUNTIME_RECOVERY_HPP
#define BT_RUNTIME_RECOVERY_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/application.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "core/schedule_eval.hpp"
#include "platform/perf_model.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/trace.hpp"

namespace bt::runtime {

class PipelineSession;

/**
 * Dropout replanning: runs the Optimizer over the application
 * restricted to the surviving PUs. One lazily-built model table and
 * one warm ScheduleEvaluator are shared across every replan of a run,
 * so a second dropout pays neither the table rebuild nor re-prediction
 * of schedules the first replan already scored; replan() returns
 * exactly the schedule a fresh planner would. Not thread-safe; free
 * until the first replan.
 */
class ReplanPlanner
{
  public:
    ReplanPlanner(const platform::PerfModel& model,
                  const core::Application& app)
        : model_(model), app_(app)
    {
    }

    /** Best schedule over the surviving PUs. Panics if none survive. */
    core::Schedule replan(const std::vector<bool>& alive);

  private:
    const platform::PerfModel& model_;
    const core::Application& app_;
    std::optional<core::ProfilingTable> table_;
    std::unique_ptr<core::ScheduleEvaluator> eval_;
};

/** Where a failed attempt goes next (RecoveryController::fail). */
enum class NextStep
{
    Retry,    ///< back off, then re-run the stage on the same PU
    Failover, ///< the chunk was rebound: re-run the stage at once
    Abandon,  ///< out of options: the stage execution is lost
};

/** Ladder position of one stage execution on one chunk. */
struct Attempt
{
    int number = 0;        ///< retries served since the last (re)start
    bool remapped = false; ///< already failed over once
};

/**
 * One run's recovery policy: owns the FaultInjector, the chunk -> PU
 * bindings, the PU-alive set, the ReplanPlanner and the RecoveryStats,
 * and records every incident through the session. Not thread-safe: the
 * host backend serializes every call under its fault mutex.
 */
class RecoveryController
{
  public:
    RecoveryController(const platform::PerfModel& model,
                       const core::Application& app,
                       PipelineSession& session);

    const FaultInjector& injector() const { return injector_; }

    /** Whether the run injects any fault at all. */
    bool enabled() const { return injector_.enabled(); }

    /** PU @p chunk is bound to right now. */
    int
    puOf(int chunk) const
    {
        return chunkPu_[static_cast<std::size_t>(chunk)];
    }

    const RecoveryStats& stats() const { return stats_; }

    /** Is this attempt drawn as a transient failure on its PU? */
    bool transient(int chunk, std::int64_t task, int stage,
                   const Attempt& attempt) const;

    /** Straggler factor of this attempt (1 = none); a straggler is
     *  counted and recorded as an instant at @p now. */
    double straggle(int chunk, std::int64_t task, int stage,
                    const Attempt& attempt, double now);

    /**
     * An attempt failed over [t0, t1] (@p kind: Transient or Timeout).
     * Counts and records it, then climbs the ladder: Retry while
     * retries remain; else Failover to the profiled next-best alive PU
     * (once per stage execution; resets @p attempt); else Abandon, which
     * records the loss on the session.
     */
    NextStep fail(int chunk, std::int64_t task, int stage,
                  TraceEventKind kind, double t0, double t1,
                  Attempt& attempt);

    /** Backoff before retry r = attempt.number: base * mult^(r - 1). */
    double backoffSeconds(const Attempt& attempt) const;

    /** Record the Retry incident as the retry starts at @p now. */
    void retry(int chunk, std::int64_t task, int stage,
               const Attempt& attempt, double now);

    /**
     * Abandon the attempt at @p now when @p chunk is bound to a dead
     * PU - which happens only once every PU has dropped out - and
     * record the loss as an exhausted ladder would. @return whether
     * the attempt was abandoned.
     */
    bool stranded(int chunk, std::int64_t task, int stage, double now);

    /** PU @p pu leaves service at @p now: re-plan on the survivors and
     *  rebind its chunks (none survive: they stay, see stranded()).
     *  @return the chunks bound to @p pu (none if it was dead). */
    std::vector<int> dropout(int pu, double now);

  private:
    /** Count, record and surface one lost stage execution. */
    void abandon(int chunk, std::int64_t task, int stage, double now);

    /** Move @p chunk to @p target and record the Remap. */
    void rebind(int chunk, int target, std::int64_t task, int stage,
                double now);

    const platform::PerfModel& model_;
    const core::Application& app_;
    PipelineSession& session_;
    const RecoveryPolicy& policy_;
    FaultInjector injector_;
    ReplanPlanner replanner_;
    std::vector<int> chunkPu_;
    std::vector<bool> alive_;
    RecoveryStats stats_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_RECOVERY_HPP
