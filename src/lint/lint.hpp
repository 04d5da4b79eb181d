/**
 * @file
 * bt::lint - a static analyzer for pipeline configurations.
 *
 * bt::check (the compute-sanitizer) finds defects by *executing*
 * instrumented kernels; bt::lint finds them by *reading* the
 * configuration: the application's declared buffer IO, a schedule, the
 * planner spec, the run config with its fault plan, and the tenant's
 * lease/contention situation. Nothing here profiles, plans or runs a
 * kernel - every pass is pure arithmetic over descriptors, so linting
 * is cheap enough to run as an admission check in front of every
 * bt::Framework::run and bt::Service::registerApp.
 *
 * Five pass families (see docs/LINT.md for the diagnostic catalog):
 *
 *  1. lintApplication - def-before-use over declared stage IO, dead
 *     outputs, producer/consumer size mismatches, cross-task alias
 *     hazards;
 *  2. lintSchedule - chunk coverage/overlap/contiguity, unknown PUs,
 *     assignments outside allowedPus;
 *  3. lintRunConfig - bounded-queue capacities that can wedge the
 *     pipeline, underfilled multi-buffering, empty steady-state
 *     windows, plus the fault-plan consistency family (pass 4);
 *  4. (folded into lintRunConfig) fault-plan ranges, dropout
 *     starvation, too-tight watchdogs, futile retry budgets,
 *     overlapping slowdown windows;
 *  5. lintPlannerSpec / lintContention - spec ranges, empty leases,
 *     and C6 budgets whose demand lower bound (min over allowed PUs of
 *     the hungriest stage) already exceeds the budget - read off the
 *     analytic ContentionModel::profileStages snapshot the optimizer
 *     plans with, no profiling involved.
 *
 * The range rules are not lint's own: RunConfig::problems,
 * FaultPlan::problems and PlannerSpec::problems hold them, and the
 * parser, the Optimizer and the backends read the same lists, so an
 * Error here is exactly a value the runtime would refuse. Lint keeps
 * only the passes that relate one config to another (or to the app,
 * device and lease).
 *
 * lintPreflight composes 1-5 for one (soc, app, spec, run) tuple;
 * lintTenant adds the serving-side checks (real-time tenants sharing
 * with unbounded co-runners). All functions are const over their
 * inputs and thread-safe: concurrent lints of shared Applications
 * produce byte-identical reports.
 */

#ifndef BT_LINT_LINT_HPP
#define BT_LINT_LINT_HPP

#include "core/application.hpp"
#include "core/optimizer.hpp"
#include "core/schedule.hpp"
#include "lint/diagnostic.hpp"
#include "platform/soc.hpp"
#include "runtime/run_types.hpp"

namespace bt::lint {

/** Pass 1: graph/buffer analysis over the app's declared IO. Apps
 *  without declarations get one Info (NoIoDeclarations) and pass. */
Report lintApplication(const core::Application& app);

/**
 * Pass 2: validity of @p schedule for an app with @p num_stages on
 * @p soc under @p spec's allowedPus (empty = all PUs allowed).
 */
Report lintSchedule(const core::Schedule& schedule, int num_stages,
                    const platform::SocDescription& soc,
                    const core::PlannerSpec& spec = {});

/**
 * Passes 3+4: handoff/deadlock lint of the run config and consistency
 * of its fault plan against @p num_pus. @p allowed_pus narrows the
 * dropout-starvation check to a lease (empty = all PUs capable).
 */
Report lintRunConfig(const runtime::RunConfig& run, int num_stages,
                     int num_pus,
                     const std::vector<int>& allowed_pus = {});

/** Pass 5a: planner-spec ranges and empty leases. */
Report lintPlannerSpec(const core::PlannerSpec& spec,
                       const platform::SocDescription& soc);

/**
 * Pass 5b: C6 feasibility. When @p spec carries a bandwidth budget,
 * compute the *lower bound* of the schedule's aggregate DRAM demand -
 * the frugalest single-chunk schedule draws the hungriest stage's
 * demand on its one PU, minimized over the allowed PUs - as
 * ContentionProfile::frugalestPu / worstStageDemandMilli of a
 * ContentionModel::profileStages snapshot (built only when a budget is
 * set), the optimizer's own floor. A budget below that bound cannot
 * be met by any schedule; the optimizer would relax C6 and break the
 * budget contract, so lint rejects it up front.
 */
Report lintContention(const core::Application& app,
                      const platform::SocDescription& soc,
                      const core::PlannerSpec& spec);

/**
 * The Framework preflight: application + spec + run config +
 * contention for one deployment. Runs before anything is profiled,
 * planned or executed.
 */
Report lintPreflight(const platform::SocDescription& soc,
                     const core::Application& app,
                     const core::PlannerSpec& spec,
                     const runtime::RunConfig& run);

/** Serving-side facts lintTenant needs beyond the preflight tuple. */
struct TenantLintInput
{
    bool realTime = false;        ///< TenantOptions::realTime
    bool contentionAware = true;  ///< ServiceConfig::contentionAware
    int leaseGroups = 1;          ///< co-runner partitions possible
};

/**
 * Admission lint for one tenant: the preflight plus serving-layer
 * checks (a realTime tenant admitted where co-runners' bandwidth is
 * unbounded gets no protection from its flag).
 */
Report lintTenant(const platform::SocDescription& soc,
                  const core::Application& app,
                  const core::PlannerSpec& spec,
                  const runtime::RunConfig& run,
                  const TenantLintInput& tenant = {});

} // namespace bt::lint

#endif // BT_LINT_LINT_HPP
