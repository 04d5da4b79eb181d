/**
 * @file
 * HostTimeBackend: the wall-clock time domain of the unified runtime.
 *
 * Executes a pipeline schedule with real host threads, exactly as paper
 * Sec. 3.4 describes - one long-lived dispatcher thread per chunk,
 * lock-free SPSC queues passing tokens, the session's recycled
 * multi-buffer pool, a thread team of `cores` per chunk (CPU teams bound
 * with sched_setaffinity, SIMT teams unbound), a recycler thread that
 * validates finished tasks off the tail dispatcher, and wall-clock
 * measurement.
 *
 * On the simulated paper devices the VirtualTimeBackend provides
 * timing; this backend provides a real concurrent implementation for
 * functional validation and for running pipelines on the local host
 * (the platform::nativeHost() description).
 */

#ifndef BT_RUNTIME_HOST_BACKEND_HPP
#define BT_RUNTIME_HOST_BACKEND_HPP

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/soc.hpp"
#include "runtime/run_types.hpp"

namespace bt::runtime {

/** Wall-clock execution of static pipeline schedules. */
class HostTimeBackend
{
  public:
    explicit HostTimeBackend(const platform::SocDescription& soc);

    const platform::SocDescription& soc() const { return soc_; }

    /** Execute @p app under @p schedule with real dispatcher threads.
     *  Kernels always run functionally (ignores cfg.runKernels). */
    RunResult run(const core::Application& app,
                  const core::Schedule& schedule,
                  const RunConfig& cfg) const;

  private:
    const platform::SocDescription& soc_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_HOST_BACKEND_HPP
