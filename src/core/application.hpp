/**
 * @file
 * The core application abstractions of BetterTogether (paper Sec. 3.1):
 * Stage (a unit of computation with CPU and GPU kernel implementations),
 * Application (a sequence of stages over streaming TaskObjects), and
 * TaskGraph (an acyclic dependency graph linearized by topological sort
 * so non-linear applications, like Octree, fit the pipeline model).
 */

#ifndef BT_CORE_APPLICATION_HPP
#define BT_CORE_APPLICATION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/task_object.hpp"
#include "platform/pu.hpp"
#include "sched/thread_pool.hpp"

namespace bt::simt {
class LaunchObserver; // bt::check instrumentation (simt/instrument.hpp)
} // namespace bt::simt

namespace bt::core {

/** Execution context handed to a kernel implementation. */
struct KernelCtx
{
    TaskObject& task;
    sched::ThreadPool* pool = nullptr; ///< CPU team; nullptr = serial
    /** Non-null runs device kernels under bt::check instrumentation. */
    simt::LaunchObserver* observer = nullptr;
};

/** One backend implementation of a stage. */
using KernelFn = std::function<void(KernelCtx&)>;

/**
 * One declared buffer access of a stage. Kernels are opaque closures,
 * so the runtime cannot see what they touch; stages that *declare*
 * their reads/writes here become statically analyzable by bt::lint
 * (def-before-use, dead outputs, size mismatches) without executing.
 */
struct BufferAccess
{
    std::string name;        ///< TaskObject buffer name
    std::int64_t bytes = -1; ///< bytes touched; -1 = data-dependent
};

/** Declared IO of one stage (empty = undeclared, lint skips it). */
struct StageIo
{
    std::vector<BufferAccess> reads;
    std::vector<BufferAccess> writes;

    bool empty() const { return reads.empty() && writes.empty(); }
};

/**
 * Declared TaskObject buffer of an application: its size and its role
 * in the task lifecycle. `input` buffers are filled by the task
 * factory/refresher, `output` buffers are consumed by the validator or
 * the caller, `scratch` buffers are stage-private workspace, and
 * `shared` marks state aliased across in-flight tasks (e.g. weights) -
 * which bt::lint flags as a hazard if any stage writes it.
 */
struct BufferDecl
{
    std::string name;
    std::int64_t bytes = -1; ///< allocation size; -1 = data-dependent
    bool input = false;
    bool output = false;
    bool scratch = false;
    bool shared = false;
};

/**
 * A pipeline stage: name, analytic work profile (drives the simulated
 * performance model) and its two kernel implementations. Stages without a
 * GPU kernel fall back to the CPU kernel under SIMT emulation, mirroring
 * how a real deployment would keep such stages on the CPU.
 */
class Stage
{
  public:
    Stage(std::string name, platform::WorkProfile work, KernelFn cpu,
          KernelFn gpu);

    const std::string& name() const { return name_; }
    const platform::WorkProfile& work() const { return work_; }

    /** Run the host-side kernel. */
    void runCpu(KernelCtx& ctx) const;

    /** Run the device-side kernel (SIMT backend). */
    void runGpu(KernelCtx& ctx) const;

    /** Dispatch by PU kind. */
    void run(KernelCtx& ctx, platform::PuKind kind) const;

    /** Declare the buffers this stage reads and writes (chainable). */
    Stage& setIo(StageIo io);

    const StageIo& io() const { return io_; }
    bool hasIo() const { return !io_.empty(); }

  private:
    std::string name_;
    platform::WorkProfile work_;
    KernelFn cpu_;
    KernelFn gpu_;
    StageIo io_;
};

/** Creates a fresh TaskObject carrying streaming input @p task_index. */
using TaskFactory = std::function<std::unique_ptr<TaskObject>(
    std::int64_t task_index, std::uint64_t seed)>;

/**
 * Regenerate the *input* of a recycled TaskObject for a new task index
 * without reallocating its buffers.
 */
using TaskRefresher
    = std::function<void(TaskObject&, std::int64_t task_index,
                         std::uint64_t seed)>;

/** Validate final outputs; returns an empty string when correct. */
using TaskValidator = std::function<std::string(const TaskObject&)>;

/**
 * A streaming application: an ordered list of stages plus factories for
 * its TaskObjects. Chunks of contiguous stages are the scheduling unit.
 */
class Application
{
  public:
    Application(std::string name, std::string input_kind,
                std::string characteristics);

    const std::string& name() const { return name_; }
    const std::string& inputKind() const { return inputKind_; }
    const std::string& characteristics() const { return traits_; }

    /** Append a stage to the pipeline. */
    void addStage(Stage stage);

    int numStages() const { return static_cast<int>(stages_.size()); }
    const Stage& stage(int i) const;
    const std::vector<Stage>& stages() const { return stages_; }

    /** The stage names in order: one immutable table, shared by the
     *  application's copies and the traces of its runs. */
    const auto& stageNames() const { return stageNames_; }

    void setTaskFactory(TaskFactory f) { factory_ = std::move(f); }
    void setTaskRefresher(TaskRefresher f) { refresher_ = std::move(f); }
    void setValidator(TaskValidator f) { validator_ = std::move(f); }

    /** Declare one TaskObject buffer (static metadata for bt::lint). */
    void declareBuffer(BufferDecl decl);

    const std::vector<BufferDecl>& buffers() const { return buffers_; }

    /** Any static IO metadata at all (buffer decls or stage IO)? */
    bool hasIoDeclarations() const;

    /** Create the TaskObject for @p task_index. */
    std::unique_ptr<TaskObject> makeTask(std::int64_t task_index,
                                         std::uint64_t seed) const;

    /** Refresh a recycled TaskObject for a new task index. */
    void refreshTask(TaskObject& task, std::int64_t task_index,
                     std::uint64_t seed) const;

    /** Validate a completed task; empty string = OK. */
    std::string validate(const TaskObject& task) const;

  private:
    std::string name_;
    std::string inputKind_;
    std::string traits_;
    std::vector<Stage> stages_;
    std::shared_ptr<const std::vector<std::string>> stageNames_;
    std::vector<BufferDecl> buffers_;
    TaskFactory factory_;
    TaskRefresher refresher_;
    TaskValidator validator_;
};

/**
 * Acyclic stage-dependency graph. BetterTogether schedules linear
 * pipelines; applications with richer structure (octree's final stage
 * reads three earlier outputs) declare edges here and are linearized
 * with a deterministic topological sort (paper Sec. 3.1, Task Graph).
 */
class TaskGraph
{
  public:
    /** Add a node; returns its id. */
    int addNode(Stage stage);

    /** Declare that @p from must execute before @p to. */
    void addEdge(int from, int to);

    int numNodes() const { return static_cast<int>(nodes.size()); }

    /**
     * Kahn topological order, smallest node id first among ready nodes
     * (deterministic). Panics on cycles.
     */
    std::vector<int> topologicalOrder() const;

    /** Move the stages into @p app in topological order. */
    void linearizeInto(Application& app) &&;

  private:
    std::vector<Stage> nodes;
    std::vector<std::pair<int, int>> edges;
};

} // namespace bt::core

#endif // BT_CORE_APPLICATION_HPP
