#include "core/application.hpp"

#include <algorithm>
#include <queue>

#include "common/logging.hpp"

namespace bt::core {

Stage::Stage(std::string name, platform::WorkProfile work, KernelFn cpu,
             KernelFn gpu)
    : name_(std::move(name)), work_(work), cpu_(std::move(cpu)),
      gpu_(std::move(gpu))
{
    BT_ASSERT(!name_.empty(), "stage needs a name");
    BT_ASSERT(static_cast<bool>(cpu_), "stage ", name_,
              " needs a CPU kernel");
    if (!gpu_)
        gpu_ = cpu_; // CPU fallback under SIMT emulation
}

void
Stage::runCpu(KernelCtx& ctx) const
{
    cpu_(ctx);
}

void
Stage::runGpu(KernelCtx& ctx) const
{
    gpu_(ctx);
}

void
Stage::run(KernelCtx& ctx, platform::PuKind kind) const
{
    if (kind == platform::PuKind::Gpu)
        runGpu(ctx);
    else
        runCpu(ctx);
}

Stage&
Stage::setIo(StageIo io)
{
    io_ = std::move(io);
    return *this;
}

Application::Application(std::string name, std::string input_kind,
                         std::string characteristics)
    : name_(std::move(name)), inputKind_(std::move(input_kind)),
      traits_(std::move(characteristics))
{
}

void
Application::addStage(Stage stage)
{
    stages_.push_back(std::move(stage));
}

void
Application::declareBuffer(BufferDecl decl)
{
    BT_ASSERT(!decl.name.empty(), "buffer declaration needs a name");
    for (const auto& d : buffers_)
        BT_ASSERT(d.name != decl.name, "buffer ", decl.name,
                  " declared twice");
    buffers_.push_back(std::move(decl));
}

bool
Application::hasIoDeclarations() const
{
    if (!buffers_.empty())
        return true;
    return std::any_of(stages_.begin(), stages_.end(),
                       [](const Stage& s) { return s.hasIo(); });
}

const Stage&
Application::stage(int i) const
{
    BT_ASSERT(i >= 0 && i < numStages(), "stage index out of range");
    return stages_[static_cast<std::size_t>(i)];
}

std::unique_ptr<TaskObject>
Application::makeTask(std::int64_t task_index, std::uint64_t seed) const
{
    BT_ASSERT(static_cast<bool>(factory_), "application ", name_,
              " has no task factory");
    auto task = factory_(task_index, seed);
    BT_ASSERT(task != nullptr, "task factory returned null");
    task->setTaskIndex(task_index);
    return task;
}

void
Application::refreshTask(TaskObject& task, std::int64_t task_index,
                         std::uint64_t seed) const
{
    BT_ASSERT(static_cast<bool>(refresher_), "application ", name_,
              " has no task refresher");
    task.reset();
    refresher_(task, task_index, seed);
    task.setTaskIndex(task_index);
}

std::string
Application::validate(const TaskObject& task) const
{
    if (!validator_)
        return "";
    return validator_(task);
}

int
TaskGraph::addNode(Stage stage)
{
    nodes.push_back(std::move(stage));
    return static_cast<int>(nodes.size() - 1);
}

void
TaskGraph::addEdge(int from, int to)
{
    BT_ASSERT(from >= 0 && from < numNodes());
    BT_ASSERT(to >= 0 && to < numNodes());
    BT_ASSERT(from != to, "self-edge in task graph");
    edges.emplace_back(from, to);
}

std::vector<int>
TaskGraph::topologicalOrder() const
{
    const std::size_t n = nodes.size();
    std::vector<int> indegree(n, 0);
    std::vector<std::vector<int>> succ(n);
    for (const auto& [from, to] : edges) {
        succ[static_cast<std::size_t>(from)].push_back(to);
        ++indegree[static_cast<std::size_t>(to)];
    }

    // Min-heap on node id keeps the order deterministic and stable.
    std::priority_queue<int, std::vector<int>, std::greater<>> ready;
    for (std::size_t i = 0; i < n; ++i)
        if (indegree[i] == 0)
            ready.push(static_cast<int>(i));

    std::vector<int> order;
    order.reserve(n);
    while (!ready.empty()) {
        const int node = ready.top();
        ready.pop();
        order.push_back(node);
        for (int s : succ[static_cast<std::size_t>(node)])
            if (--indegree[static_cast<std::size_t>(s)] == 0)
                ready.push(s);
    }
    BT_ASSERT(order.size() == n, "task graph has a cycle");
    return order;
}

void
TaskGraph::linearizeInto(Application& app) &&
{
    for (int id : topologicalOrder())
        app.addStage(std::move(nodes[static_cast<std::size_t>(id)]));
    nodes.clear();
    edges.clear();
}

} // namespace bt::core
