/**
 * @file
 * Executor adapters binding a stage's KernelCtx to the kernel layer.
 *
 * Application stage bodies build their CpuExec/GpuExec through these
 * helpers so every kernel call site picks up the chunk's worker team
 * uniformly. Device stages forward the team too: the host backend gives
 * GPU chunks a team of the SIMT PU's cores, so device kernels launch
 * across it (bit-identical to the serial launch for race-free kernels);
 * with no team the launch runs serially on the caller.
 */

#ifndef BT_APPS_APP_EXEC_HPP
#define BT_APPS_APP_EXEC_HPP

#include "core/application.hpp"
#include "kernels/exec.hpp"

namespace bt::apps {

/** Host-side executor for a stage running on this chunk's team. */
inline kernels::CpuExec
hostExec(const core::KernelCtx& ctx)
{
    return kernels::CpuExec{ctx.pool};
}

/** Device-side executor; forwards the chunk's team (see file docs). */
inline kernels::GpuExec
deviceExec(const core::KernelCtx& ctx)
{
    kernels::GpuExec exec;
    exec.pool = ctx.pool;
    exec.observer = ctx.observer;
    return exec;
}

} // namespace bt::apps

#endif // BT_APPS_APP_EXEC_HPP
