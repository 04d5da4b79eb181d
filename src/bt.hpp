/**
 * @file
 * Umbrella header and one-object entry point for the BetterTogether
 * framework.
 *
 * `#include "bt.hpp"` pulls in everything a user program needs: the
 * application model, the simulated devices, the profile -> optimize ->
 * autotune flow, the unified pipeline runtime (including fault
 * injection and recovery) with its virtual-time backend (static
 * pipeline or greedy dynamic dispatch) and host-thread backend, and
 * the multi-tenant serving front end
 * (bt::Service).
 *
 * bt::Framework (flow/framework.hpp) runs the whole paper flow from a
 * single FrameworkConfig that composes the per-component knobs
 * (ProfilerConfig, core::PlannerSpec, runtime::RunConfig). Because
 * RunConfig carries the FaultPlan and RecoveryPolicy, fault-tolerant
 * deployments need no extra API surface - describe the faults in the
 * same config.
 */

#ifndef BT_BT_HPP
#define BT_BT_HPP

#include "common/logging.hpp"
#include "core/application.hpp"
#include "core/autotuner.hpp"
#include "core/native_executor.hpp"
#include "core/optimizer.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "flow/framework.hpp"
#include "lint/lint.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/run_types.hpp"
#include "service/service.hpp"

namespace bt {

/** The serving front end, re-exported at the top level: a worker pool,
 *  PU leasing, and a keyed schedule cache over the Framework flow. */
using service::Service;
using service::ServiceConfig;
using service::ServiceReport;

} // namespace bt

#endif // BT_BT_HPP
