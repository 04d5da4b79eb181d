/**
 * @file
 * PipelineSession: the BT-Implementer's dispatcher core, owned once.
 *
 * Paper Sec. 3.4 describes one runtime - a dispatcher per chunk popping
 * TaskObjects from a bounded queue, running its contiguous stages, and
 * handing the token downstream, with a recycled multi-buffer pool
 * closing the loop. This class holds every piece of that machinery that
 * is independent of *how time passes*: chunk geometry, the TaskObject
 * pool, token -> task binding, injection/refresh at the head chunk,
 * completion/validation after the tail chunk, trace recording, and the
 * shared result accounting. Time backends (virtual DES or real host
 * threads) drive it from their own time domain and contribute only the
 * domain-specific parts: how a queue hand-off waits and how long a
 * stage takes.
 *
 * Threading contract: inject() is called only by the head dispatcher,
 * complete() only by the recycler, once per task, before the token
 * returns to the head; runStage() by the owning chunk's dispatcher;
 * recordEvent() may be called from any thread and is internally
 * synchronized (the virtual backend plays every role on one thread).
 */

#ifndef BT_RUNTIME_PIPELINE_SESSION_HPP
#define BT_RUNTIME_PIPELINE_SESSION_HPP

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "platform/soc.hpp"
#include "runtime/run_types.hpp"

namespace bt::runtime {

/** One dispatcher slot: a chunk of a static schedule, or a greedy
 *  dispatcher that starts on PU class `pu` and may run any stage. */
struct ChunkSpec
{
    int index = 0;
    int firstStage = 0; ///< inclusive
    int lastStage = 0;  ///< inclusive
    int pu = 0;         ///< PU class executing this chunk
};

/** Shared dispatcher state for one pipeline run. */
class PipelineSession
{
  public:
    /**
     * One slot per chunk of @p schedule.
     * @param functional whether TaskObjects exist and stage kernels
     *        actually run (host backend: always; virtual backend: the
     *        runKernels knob).
     */
    PipelineSession(const core::Application& app,
                    const core::Schedule& schedule,
                    const platform::SocDescription& soc,
                    const RunConfig& cfg, std::string backend_name,
                    bool functional);

    /** Explicit dispatcher @p slots; the pool holds
     *  RunConfig::resolveBuffers(slots.size()) tokens. */
    PipelineSession(const core::Application& app,
                    std::vector<ChunkSpec> slots,
                    const platform::SocDescription& soc,
                    const RunConfig& cfg, std::string backend_name,
                    bool functional);

    int numChunks() const { return static_cast<int>(chunks_.size()); }
    int numBuffers() const { return numBuffers_; }
    const ChunkSpec&
    chunk(int c) const
    {
        return chunks_[static_cast<std::size_t>(c)];
    }
    const RunConfig& config() const { return cfg_; }
    bool functional() const { return functional_; }

    /** Whether every task has already been injected at the head. */
    bool exhausted() const { return nextTask_ >= cfg_.numTasks; }

    /**
     * Head-chunk acquisition: bind @p token to the next streaming input,
     * record its injection time, and (functional runs) refresh the
     * recycled TaskObject for the new index. Pre: !exhausted().
     * @return the task index now carried by the token.
     */
    std::int64_t inject(int token, double now);

    /** Task index currently carried by @p token. */
    std::int64_t
    taskOf(int token) const
    {
        return tokenTask_[static_cast<std::size_t>(token)];
    }

    /**
     * Run one stage's kernel on @p token (functional runs only).
     * @p pu_override selects the kernel flavor when recovery has
     * remapped the chunk away from its deployed PU (-1 = deployed).
     */
    void runStage(int chunk_index, int stage, int token,
                  sched::ThreadPool* team, int pu_override = -1) const;

    /**
     * Record an unrecovered stage (retries exhausted with no failover
     * target, or no PU left): counts as a validation error so
     * RunResult::valid() is false. Thread-safe; bounded like kernel
     * validation errors.
     */
    void recordFailure(std::int64_t task, int stage);

    /**
     * Record @p now as the completion time of the task carried by
     * @p token and validate its outputs (functional runs, bounded error
     * collection). Called once per task, after the tail chunk and
     * before inject() rebinds the token.
     */
    void complete(int token, double now);

    /** Append a stage execution to the timeline (thread-safe). */
    void recordEvent(TraceEvent event);

    /**
     * Assemble the unified RunResult: makespan, steady-state interval
     * over the sorted post-warmup completions, mean end-to-end latency,
     * per-slot busy fractions, validation errors, and the recorded
     * timeline.
     */
    RunResult finish(double makespan_seconds,
                     std::span<const double> chunk_busy_seconds,
                     bool affinity_applied);

  private:
    const core::Application& app_;
    const platform::SocDescription& soc_;
    RunConfig cfg_;
    bool functional_;

    std::vector<ChunkSpec> chunks_;
    int numBuffers_;

    /** Recycled multi-buffer pool (empty when not functional). */
    std::vector<std::unique_ptr<core::TaskObject>> pool_;

    std::vector<std::int64_t> tokenTask_;
    std::int64_t nextTask_ = 0;
    std::vector<double> injectTime_;
    std::vector<double> completeTime_;
    std::vector<std::string> validationErrors_;
    std::mutex errorMutex_;

    TraceTimeline trace_;
    std::mutex traceMutex_;
};

/** PU and stage name lists for timeline construction. */
std::vector<std::string> puNames(const platform::SocDescription& soc);
std::vector<std::string> stageNames(const core::Application& app);

} // namespace bt::runtime

#endif // BT_RUNTIME_PIPELINE_SESSION_HPP
