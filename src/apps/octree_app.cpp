#include "apps/octree_app.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "apps/app_exec.hpp"
#include "kernels/morton.hpp"
#include "kernels/octree.hpp"
#include "kernels/prefix_sum.hpp"
#include "kernels/radix_tree.hpp"
#include "kernels/sort.hpp"
#include "kernels/unique.hpp"

namespace bt::apps {

namespace {

using kernels::OctreeView;
using kernels::RadixTreeView;
using platform::Pattern;
using platform::WorkProfile;

/** The radix tree's SoA buffers. */
std::vector<std::string>
treeBuffers()
{
    return {"rt_left",      "rt_right", "rt_parent", "rt_leafparent",
            "rt_prefixlen", "rt_first", "rt_last"};
}

/** The octree's SoA buffers, the app's outputs. */
std::vector<std::string>
octreeBuffers()
{
    return {"oct_prefix",    "oct_level", "oct_parent",
            "oct_childmask", "oct_first", "oct_count"};
}

/** Radix-tree SoA view over the task's pre-allocated buffers. */
RadixTreeView
treeView(core::TaskObject& task, std::int64_t k)
{
    const auto internal = static_cast<std::size_t>(k > 1 ? k - 1 : 0);
    RadixTreeView v;
    v.left = task.view<std::int32_t>("rt_left").subspan(0, internal);
    v.right = task.view<std::int32_t>("rt_right").subspan(0, internal);
    v.parent
        = task.view<std::int32_t>("rt_parent").subspan(0, internal);
    v.leafParent = task.view<std::int32_t>("rt_leafparent")
                       .subspan(0, static_cast<std::size_t>(k));
    v.prefixLen
        = task.view<std::int32_t>("rt_prefixlen").subspan(0, internal);
    v.first = task.view<std::int32_t>("rt_first").subspan(0, internal);
    v.last = task.view<std::int32_t>("rt_last").subspan(0, internal);
    return v;
}

/** Octree SoA view over the task's pre-allocated buffers. */
OctreeView
octView(core::TaskObject& task)
{
    OctreeView v;
    v.prefix = task.view<std::uint32_t>("oct_prefix");
    v.level = task.view<std::int32_t>("oct_level");
    v.parent = task.view<std::int32_t>("oct_parent");
    v.childMask = task.view<std::uint32_t>("oct_childmask");
    v.firstCode = task.view<std::int32_t>("oct_first");
    v.codeCount = task.view<std::int32_t>("oct_count");
    return v;
}

void
fillPoints(core::TaskObject& task, const OctreeConfig& cfg,
           std::int64_t task_index, std::uint64_t seed)
{
    auto points = task.view<float>("points");
    const std::int64_t n = cfg.numPoints;
    BT_ASSERT(points.size() >= static_cast<std::size_t>(3 * n));
    Rng rng(hashCombine(seed ^ 0x0c7ee, static_cast<std::uint64_t>(
        task_index)));

    if (cfg.distribution == PointDistribution::Uniform) {
        for (std::int64_t i = 0; i < 3 * n; ++i)
            points[static_cast<std::size_t>(i)]
                = static_cast<float>(rng.nextDouble());
        return;
    }

    // Clustered: Gaussian blobs around per-task cluster centers.
    const int clusters = std::max(1, cfg.numClusters);
    std::vector<float> centers(static_cast<std::size_t>(clusters) * 3);
    for (auto& c : centers)
        c = static_cast<float>(rng.nextRange(0.1, 0.9));
    for (std::int64_t i = 0; i < n; ++i) {
        const std::size_t c = static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint64_t>(clusters)));
        for (int d = 0; d < 3; ++d) {
            const double v = centers[c * 3 + static_cast<std::size_t>(
                d)] + rng.nextGaussian() * 0.03;
            points[static_cast<std::size_t>(3 * i + d)]
                = static_cast<float>(std::clamp(v, 0.0, 0.999999));
        }
    }
}

/** Attach declared IO to a freshly built stage (bt::lint metadata). */
core::Stage
withIo(core::Stage s, core::StageIo io)
{
    s.setIo(std::move(io));
    return s;
}

WorkProfile
profileOf(const char* stage, double n)
{
    WorkProfile w;
    const std::string s(stage);
    if (s == "morton") {
        w = {30.0 * n, 16.0 * n, 0.999, Pattern::Dense};
    } else if (s == "sort") {
        // Four LSD passes: histogram + scatter - the scatter pattern
        // is what mobile GPUs handle worst (paper Fig. 1).
        w = {40.0 * n, 64.0 * n, 0.95, Pattern::Irregular};
    } else if (s == "unique") {
        w = {8.0 * n, 24.0 * n, 0.90, Pattern::Sparse};
    } else if (s == "radix_tree") {
        // Per-node binary searches: compute-heavy but regular enough
        // for GPUs (the paper's Fig. 1 shows the GPU winning here).
        w = {80.0 * n, 28.0 * n, 0.98, Pattern::Mixed};
    } else if (s == "edge_count") {
        // Parent-chain walks: divergent but read-only traversal -
        // costly on CPUs and GPUs alike, unlike the scatter-bound sort.
        w = {10.0 * n, 16.0 * n, 0.97, Pattern::Mixed};
    } else if (s == "prefix_sum") {
        w = {6.0 * n, 24.0 * n, 0.85, Pattern::Sparse};
    } else if (s == "build_octree") {
        w = {50.0 * n, 48.0 * n, 0.92, Pattern::Mixed};
    } else {
        BT_PANIC("app.unknown_stage", "unknown octree stage ", s);
    }
    return w;
}

} // namespace

core::Application
octreeApp(OctreeConfig cfg)
{
    BT_ASSERT(cfg.numPoints >= 1);
    const std::int64_t n = cfg.numPoints;
    const double nd = static_cast<double>(n);

    core::Application app("Octree", "PC", "Mixed Sparse & Dense");

    // TaskObject layout: every buffer at its worst case, n codes and
    // maxOctreeNodes(n) nodes, whatever unique-code count k a task has.
    const auto u32 = static_cast<std::int64_t>(sizeof(std::uint32_t));
    const std::int64_t codeBytes = n * u32;
    const std::int64_t pairBytes = 2 * n * u32;
    const std::int64_t nodeBytes = kernels::maxOctreeNodes(n) * u32;
    app.declareBuffer({"points",
                       3 * n * static_cast<std::int64_t>(sizeof(float)),
                       /*input=*/true});
    app.declareBuffer({"morton", codeBytes});
    app.declareBuffer({"sorted", codeBytes});
    app.declareBuffer({"sort_scratch", codeBytes, false, false,
                       /*scratch=*/true});
    app.declareBuffer({"unique", codeBytes});
    app.declareBuffer({"flags", codeBytes, false, false,
                       /*scratch=*/true});
    for (const std::string& name : treeBuffers())
        app.declareBuffer({name, codeBytes});
    app.declareBuffer({"counts", pairBytes});
    app.declareBuffer({"offsets", pairBytes});
    for (const std::string& name : octreeBuffers())
        app.declareBuffer({name, nodeBytes, false, /*output=*/true});

    // Stages are declared as a task graph: the pipeline is mostly
    // linear, but Build Octree consumes the outputs of Duplicate
    // Removal (codes), Build Radix Tree, and Prefix Sum directly.
    core::TaskGraph graph;

    const int s_morton = graph.addNode(withIo(core::Stage(
        "morton", profileOf("morton", nd),
        [n](core::KernelCtx& ctx) {
            kernels::mortonEncodeCpu(hostExec(ctx),
                                     ctx.task.view<const float>(
                                         "points"),
                                     ctx.task.view<std::uint32_t>(
                                         "morton"),
                                     n);
        },
        [n](core::KernelCtx& ctx) {
            kernels::mortonEncodeGpu(deviceExec(ctx),
                                     ctx.task.view<const float>(
                                         "points"),
                                     ctx.task.view<std::uint32_t>(
                                         "morton"),
                                     n);
        }),
        {{"points"}, {"morton"}}));

    auto sortInto = [n](core::TaskObject& task) {
        const auto src = task.view<const std::uint32_t>("morton");
        auto dst = task.view<std::uint32_t>("sorted");
        std::memcpy(dst.data(), src.data(),
                    static_cast<std::size_t>(n) * sizeof(std::uint32_t));
        return dst.subspan(0, static_cast<std::size_t>(n));
    };
    const int s_sort = graph.addNode(withIo(core::Stage(
        "sort", profileOf("sort", nd),
        [sortInto](core::KernelCtx& ctx) {
            auto keys = sortInto(ctx.task);
            kernels::radixSortCpu(hostExec(ctx), keys,
                                  ctx.task.view<std::uint32_t>(
                                      "sort_scratch"));
        },
        [sortInto](core::KernelCtx& ctx) {
            auto keys = sortInto(ctx.task);
            kernels::radixSortGpu(keys,
                                  ctx.task.view<std::uint32_t>(
                                      "sort_scratch"),
                                  ctx.observer);
        }),
        {{"morton"}, {"sorted", "sort_scratch"}}));

    const int s_unique = graph.addNode(withIo(core::Stage(
        "unique", profileOf("unique", nd),
        [n](core::KernelCtx& ctx) {
            const auto sorted = ctx.task.view<const std::uint32_t>(
                "sorted").subspan(0, static_cast<std::size_t>(n));
            const std::int64_t k = kernels::uniqueCpu(
                hostExec(ctx), sorted,
                ctx.task.view<std::uint32_t>("unique"),
                ctx.task.view<std::uint32_t>("flags"));
            ctx.task.setScalar("unique_count", k);
        },
        [n](core::KernelCtx& ctx) {
            const auto sorted = ctx.task.view<const std::uint32_t>(
                "sorted").subspan(0, static_cast<std::size_t>(n));
            const std::int64_t k = kernels::uniqueGpu(
                sorted, ctx.task.view<std::uint32_t>("unique"),
                ctx.task.view<std::uint32_t>("flags"), ctx.observer);
            ctx.task.setScalar("unique_count", k);
        }),
        {{"sorted"}, {"unique", "flags"}}));

    auto uniqueCodes = [](core::TaskObject& task, std::int64_t k) {
        return task.view<const std::uint32_t>("unique").subspan(
            0, static_cast<std::size_t>(k));
    };
    const int s_tree = graph.addNode(withIo(core::Stage(
        "radix_tree", profileOf("radix_tree", nd),
        [uniqueCodes](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            kernels::buildRadixTreeCpu(hostExec(ctx),
                                       uniqueCodes(ctx.task, k), k,
                                       treeView(ctx.task, k));
        },
        [uniqueCodes](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            kernels::buildRadixTreeGpu(deviceExec(ctx),
                                       uniqueCodes(ctx.task, k), k,
                                       treeView(ctx.task, k));
        }),
        {{"unique"}, treeBuffers()}));

    const int s_edges = graph.addNode(withIo(core::Stage(
        "edge_count", profileOf("edge_count", nd),
        [](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            kernels::countOctreeNodesCpu(
                hostExec(ctx), treeView(ctx.task, k), k,
                ctx.task.view<std::uint32_t>("counts"));
        },
        [](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            kernels::countOctreeNodesGpu(
                deviceExec(ctx), treeView(ctx.task, k), k,
                ctx.task.view<std::uint32_t>("counts"));
        }),
        {treeBuffers(), {"counts"}}));

    const int s_scan = graph.addNode(withIo(core::Stage(
        "prefix_sum", profileOf("prefix_sum", nd),
        [](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            const auto counts = ctx.task.view<const std::uint32_t>(
                "counts").subspan(0, static_cast<std::size_t>(
                    2 * k - 1));
            const std::uint64_t total = kernels::exclusiveScanCpu(
                hostExec(ctx), counts,
                ctx.task.view<std::uint32_t>("offsets"));
            ctx.task.setScalar("oct_total",
                               static_cast<std::int64_t>(total));
        },
        [](core::KernelCtx& ctx) {
            const std::int64_t k = ctx.task.scalar("unique_count");
            const auto counts = ctx.task.view<const std::uint32_t>(
                "counts").subspan(0, static_cast<std::size_t>(
                    2 * k - 1));
            const std::uint64_t total = kernels::exclusiveScanGpu(
                counts, ctx.task.view<std::uint32_t>("offsets"),
                ctx.observer);
            ctx.task.setScalar("oct_total",
                               static_cast<std::int64_t>(total));
        }),
        {{"counts"}, {"offsets"}}));

    auto buildBody = [uniqueCodes](core::KernelCtx& ctx, bool gpu) {
        const std::int64_t k = ctx.task.scalar("unique_count");
        const std::uint64_t total = static_cast<std::uint64_t>(
            ctx.task.scalar("oct_total"));
        const auto counts
            = ctx.task.view<const std::uint32_t>("counts");
        const auto offsets
            = ctx.task.view<const std::uint32_t>("offsets");
        std::int64_t nodes;
        if (gpu)
            nodes = kernels::buildOctreeGpu(
                deviceExec(ctx), uniqueCodes(ctx.task, k), k,
                treeView(ctx.task, k), counts, offsets, total,
                octView(ctx.task));
        else
            nodes = kernels::buildOctreeCpu(
                hostExec(ctx), uniqueCodes(ctx.task, k), k,
                treeView(ctx.task, k), counts, offsets, total,
                octView(ctx.task));
        ctx.task.setScalar("oct_nodes", nodes);
    };
    const int s_build = graph.addNode(withIo(
        core::Stage(
            "build_octree", profileOf("build_octree", nd),
            [buildBody](core::KernelCtx& ctx) { buildBody(ctx, false); },
            [buildBody](core::KernelCtx& ctx) { buildBody(ctx, true); }),
        {{"unique", "rt_left", "rt_right", "rt_parent", "rt_leafparent",
          "rt_prefixlen", "rt_first", "rt_last", "counts", "offsets"},
         octreeBuffers()}));

    // Pipeline chain plus the extra data dependencies of the final
    // stage (paper Sec. 3.1: it reads stages 3, 4 and 6 directly).
    graph.addEdge(s_morton, s_sort);
    graph.addEdge(s_sort, s_unique);
    graph.addEdge(s_unique, s_tree);
    graph.addEdge(s_tree, s_edges);
    graph.addEdge(s_edges, s_scan);
    graph.addEdge(s_scan, s_build);
    graph.addEdge(s_unique, s_build);
    graph.addEdge(s_tree, s_build);
    std::move(graph).linearizeInto(app);

    app.setTaskInput([cfg](core::TaskObject& task,
                           std::int64_t task_index, std::uint64_t seed) {
        fillPoints(task, cfg, task_index, seed);
    });

    if (cfg.withValidator) {
        app.setValidator([n](const core::TaskObject& task)
                             -> std::string {
            auto& mutable_task = const_cast<core::TaskObject&>(task);
            const std::int64_t k = task.scalar("unique_count");
            if (k < 1 || k > n)
                return "unique_count out of range";
            const auto sorted = task.view<const std::uint32_t>(
                "sorted");
            for (std::int64_t i = 0; i + 1 < n; ++i)
                if (sorted[static_cast<std::size_t>(i)]
                    > sorted[static_cast<std::size_t>(i + 1)])
                    return "sorted output not ascending";
            const auto unique = task.view<const std::uint32_t>(
                "unique");
            for (std::int64_t i = 0; i + 1 < k; ++i)
                if (unique[static_cast<std::size_t>(i)]
                    >= unique[static_cast<std::size_t>(i + 1)])
                    return "unique output not strictly increasing";

            const auto codes = unique.subspan(
                0, static_cast<std::size_t>(k));
            const std::string tree_err = kernels::validateRadixTree(
                codes, k, treeView(mutable_task, k));
            if (!tree_err.empty())
                return "radix tree: " + tree_err;

            const std::int64_t nodes = task.scalar("oct_nodes");
            const std::string oct_err = kernels::validateOctree(
                codes, k, octView(mutable_task), nodes);
            if (!oct_err.empty())
                return "octree: " + oct_err;
            return "";
        });
    }
    return app;
}

} // namespace bt::apps
