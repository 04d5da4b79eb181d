/**
 * @file
 * VirtualTimeBackend: the DES time domain of the unified runtime.
 *
 * Time passes on the discrete-event engine; a stage's duration comes
 * from the interference-aware performance model evaluated against the
 * *instantaneous* set of co-running stages, scaled by deterministic
 * seeded measurement noise. Because that set varies over the pipeline's
 * execution (ramp-up, bubbles, chunk imbalance), the measured latency
 * deviates from any static prediction in exactly the way real hardware
 * does - which is what makes the Fig. 5/6 accuracy experiments and the
 * autotuning level meaningful.
 *
 * One run body serves two dispatch policies, which differ only in how a
 * dispatcher slot gets its next (task, stage): the static pipeline (a
 * slot per chunk, fed by the previous chunk's queue) and the greedy
 * earliest-finish baseline (a slot per PU class, fed by a ready set).
 * Both share the engine, the energy meter, the noise derivation, the
 * PipelineSession and the RecoveryController, so fault plans, range
 * checks and kernels apply to both alike.
 *
 * Optionally, every stage's kernel is also executed functionally on the
 * host so output correctness under any schedule can be validated.
 */

#ifndef BT_RUNTIME_VIRTUAL_BACKEND_HPP
#define BT_RUNTIME_VIRTUAL_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/application.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "runtime/run_types.hpp"

namespace bt::runtime {

/**
 * Greedy earliest-finish dynamic dispatch, the contrast case to static
 * pipelining (paper Sec. 6): every ready (task, stage) goes to the PU
 * with the best predicted completion time under @p costs (normally the
 * interference-aware profiling table), StarPU-style, and each dispatch
 * pays @p dispatchOverheadUs. RunConfig::numBuffers caps the tasks in
 * flight (0 = one per PU class plus one).
 */
struct GreedyDispatch
{
    const core::ProfilingTable* costs = nullptr;

    /** Runtime cost charged per dispatch decision (queue locks, cost
     *  model lookup, kernel argument marshalling). */
    double dispatchOverheadUs = 50.0;
};

struct RunMemo;
class PipelineSession;

/**
 * Virtual-time execution under either dispatch policy. Runs are
 * independent and may run concurrently on one backend; the backend
 * keeps what recent runs drew and folded (see simulate).
 */
class VirtualTimeBackend
{
  public:
    explicit VirtualTimeBackend(const platform::PerfModel& model);

    /** A copy serves the same model and starts with no memos. */
    VirtualTimeBackend(const VirtualTimeBackend& other);
    ~VirtualTimeBackend();

    const platform::PerfModel& model() const { return model_; }

    /** Execute @p app under the static @p schedule in virtual time. */
    RunResult run(const core::Application& app,
                  const core::Schedule& schedule,
                  const RunConfig& cfg) const;

    /** Execute @p app under greedy dynamic dispatch in virtual time. */
    RunResult run(const core::Application& app,
                  const GreedyDispatch& greedy,
                  const RunConfig& cfg) const;

  private:
    /**
     * Run @p session under @p greedy (its static chunks when null),
     * reading and extending the kept memo for its inputs; the
     * kKeptMemos most recently used memos stay.
     */
    RunResult simulate(const core::Application& app,
                       PipelineSession& session,
                       const GreedyDispatch* greedy) const;

    static constexpr std::size_t kKeptMemos = 16;

    const platform::PerfModel& model_;
    const TraceTimeline::NameTable puNames_; ///< the model's, for traces

    mutable std::mutex memoMutex_; ///< guards memos_
    /** Memos not held by a run, least recently used first. */
    mutable std::vector<std::unique_ptr<RunMemo>> memos_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_VIRTUAL_BACKEND_HPP
