/**
 * @file
 * Native BT-Implementer: executes a pipeline schedule with real host
 * threads, exactly as paper Sec. 3.4 describes - one long-lived
 * dispatcher thread per chunk, lock-free SPSC queues passing tokens
 * into the recycled multi-buffer pool, per-chunk thread teams bound
 * with sched_setaffinity, and wall-clock measurement.
 *
 * Thin policy over the unified runtime: the dispatcher core lives in
 * runtime::PipelineSession and the threaded time domain in
 * runtime::HostTimeBackend; this class keeps the historical core-level
 * entry point. Results are runtime::RunResult, so native runs also
 * report mean latency, per-chunk utilization, and the structured
 * TraceTimeline.
 */

#ifndef BT_CORE_NATIVE_EXECUTOR_HPP
#define BT_CORE_NATIVE_EXECUTOR_HPP

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/soc.hpp"
#include "runtime/host_backend.hpp"

namespace bt::core {

/** Threaded pipeline executor for the local host. */
class NativeExecutor
{
  public:
    explicit NativeExecutor(const platform::SocDescription& soc,
                            runtime::RunConfig cfg = {});

    /** Execute @p app under @p schedule with real dispatcher threads. */
    runtime::RunResult execute(const Application& app,
                               const Schedule& schedule) const;

  private:
    runtime::HostTimeBackend backend;
    runtime::RunConfig config;
};

} // namespace bt::core

#endif // BT_CORE_NATIVE_EXECUTOR_HPP
