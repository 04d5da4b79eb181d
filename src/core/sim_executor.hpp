/**
 * @file
 * Simulated BT-Implementer: executes a pipeline schedule on a simulated
 * SoC in virtual time (DESIGN.md substitution table).
 *
 * Thin policy over the unified runtime: the dispatcher core lives in
 * runtime::PipelineSession and the DES time domain in
 * runtime::VirtualTimeBackend; this class keeps the historical
 * core-level entry point. Results are runtime::RunResult, so a run's
 * structured TraceTimeline rides along.
 */

#ifndef BT_CORE_SIM_EXECUTOR_HPP
#define BT_CORE_SIM_EXECUTOR_HPP

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt::core {

/** Virtual-time pipeline executor over one simulated device. */
class SimExecutor
{
  public:
    explicit SimExecutor(const platform::PerfModel& model,
                         runtime::RunConfig cfg = {});

    /** Execute @p app under @p schedule and measure it. */
    runtime::RunResult execute(const Application& app,
                               const Schedule& schedule) const;

    /**
     * execute() with recordTrace forced off: the same timing, energy
     * and recovery fields bit for bit (tracing never changes the event
     * sequence), and an empty trace. For runs that only want the
     * numbers - autotuning candidates, homogeneous baselines.
     */
    runtime::RunResult measure(const Application& app,
                               const Schedule& schedule) const;

  private:
    runtime::VirtualTimeBackend backend;
    runtime::RunConfig config;
    runtime::RunConfig measureConfig; ///< config with recordTrace = false
};

} // namespace bt::core

#endif // BT_CORE_SIM_EXECUTOR_HPP
