/**
 * @file
 * Unit tests for the core abstractions: UsmBuffer, TaskObject, Stage /
 * Application / TaskGraph, ProfilingTable, and the Schedule type with
 * its exhaustive enumeration (including the paper's 9-stage / 4-PU
 * space size).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <set>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "core/application.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "core/task_object.hpp"
#include "core/usm_buffer.hpp"
#include "platform/devices.hpp"

namespace bt::core {
namespace {

TEST(UsmBuffer, AllocatesZeroedAndAligned)
{
    UsmBuffer buf(1024);
    EXPECT_EQ(buf.sizeBytes(), 1024u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    for (std::uint8_t byte : buf.span<std::uint8_t>())
        EXPECT_EQ(byte, 0u);
}

TEST(UsmBuffer, TypedSpanViews)
{
    UsmBuffer buf(16 * sizeof(float));
    auto floats = buf.span<float>();
    EXPECT_EQ(floats.size(), 16u);
    floats[3] = 2.5f;
    // The same memory through another typed view.
    auto words = buf.span<std::uint32_t>();
    EXPECT_NE(words[3], 0u);
}

TEST(UsmBuffer, MoveTransfersOwnership)
{
    UsmBuffer a(64);
    a.span<std::uint8_t>()[0] = 7;
    void* p = a.data();
    UsmBuffer b(std::move(a));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(b.span<std::uint8_t>()[0], 7);
}

TEST(UsmBuffer, ClearZeroes)
{
    UsmBuffer buf(32);
    std::memset(buf.data(), 0xAB, 32);
    buf.clear();
    for (std::uint8_t byte : buf.span<std::uint8_t>())
        EXPECT_EQ(byte, 0u);
}

TEST(TaskObject, BuffersAndScalars)
{
    TaskObject task;
    task.addBuffer("a", 128);
    task.addBuffer("b", 256);
    EXPECT_TRUE(task.hasBuffer("a"));
    EXPECT_FALSE(task.hasBuffer("c"));
    EXPECT_EQ(task.buffer("b").sizeBytes(), 256u);
    EXPECT_EQ(task.view<float>("a").size(), 32u);

    task.setScalar("count", 42);
    EXPECT_TRUE(task.hasScalar("count"));
    EXPECT_EQ(task.scalar("count"), 42);
    task.setScalar("count", 7);
    EXPECT_EQ(task.scalar("count"), 7);
}

TEST(TaskObject, ResetKeepsBuffersDropsScalars)
{
    TaskObject task;
    task.addBuffer("a", 64);
    task.view<std::uint8_t>("a")[0] = 9;
    task.setScalar("k", 1);
    task.setTaskIndex(5);
    task.reset();
    EXPECT_TRUE(task.hasBuffer("a"));
    EXPECT_EQ(task.view<std::uint8_t>("a")[0], 9); // data untouched
    EXPECT_FALSE(task.hasScalar("k"));
    EXPECT_EQ(task.taskIndex(), -1);
}

TEST(Application, MakeTaskAllocatesDeclaredBuffersButNotSharedOnes)
{
    Application app("decl", "fixture", "");
    app.declareBuffer({"in", 64, /*input=*/true});
    app.declareBuffer({"empty", 0});
    app.declareBuffer({"weights", 4096, false, false, false,
                       /*shared=*/true});
    app.setTaskInput([](TaskObject& task, std::int64_t index,
                        std::uint64_t seed) {
        EXPECT_EQ(task.view<std::uint8_t>("in")[1], 0); // zero-filled
        task.view<std::uint8_t>("in")[0]
            = static_cast<std::uint8_t>(index + seed);
    });
    const auto task = app.makeTask(3, 4);
    EXPECT_EQ(task->numBuffers(), 2u);
    EXPECT_EQ(task->buffer("in").sizeBytes(), 64u);
    EXPECT_TRUE(task->buffer("empty").empty());
    EXPECT_FALSE(task->hasBuffer("weights")); // kept outside the task
    EXPECT_EQ(task->view<std::uint8_t>("in")[0], 7);
    EXPECT_EQ(task->taskIndex(), 3);

    // No input callback: a task of zero-filled declared buffers.
    Application bare("bare", "fixture", "");
    bare.declareBuffer({"x", 16});
    EXPECT_EQ(bare.makeTask(0, 0)->view<std::uint8_t>("x")[15], 0);
}

TEST(Stage, GpuFallsBackToCpuKernel)
{
    int cpu_runs = 0;
    Stage s("s", platform::WorkProfile{},
            [&](KernelCtx&) { ++cpu_runs; }, nullptr);
    TaskObject task;
    KernelCtx ctx{task, nullptr};
    s.runGpu(ctx);
    EXPECT_EQ(cpu_runs, 1);
}

TEST(Stage, DispatchByPuKind)
{
    int cpu_runs = 0, gpu_runs = 0;
    Stage s("s", platform::WorkProfile{},
            [&](KernelCtx&) { ++cpu_runs; },
            [&](KernelCtx&) { ++gpu_runs; });
    TaskObject task;
    KernelCtx ctx{task, nullptr};
    s.run(ctx, platform::PuKind::Cpu);
    s.run(ctx, platform::PuKind::Gpu);
    EXPECT_EQ(cpu_runs, 1);
    EXPECT_EQ(gpu_runs, 1);
}

TEST(TaskGraph, LinearChainKeepsOrder)
{
    TaskGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(g.addNode(Stage("s" + std::to_string(i),
                                      platform::WorkProfile{},
                                      [](KernelCtx&) {}, nullptr)));
    for (int i = 0; i + 1 < 4; ++i)
        g.addEdge(ids[static_cast<std::size_t>(i)],
                  ids[static_cast<std::size_t>(i + 1)]);
    EXPECT_EQ(g.topologicalOrder(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(TaskGraph, DiamondPrefersSmallerIds)
{
    TaskGraph g;
    for (int i = 0; i < 4; ++i)
        g.addNode(Stage("s" + std::to_string(i),
                        platform::WorkProfile{}, [](KernelCtx&) {},
                        nullptr));
    // 0 -> {1, 2} -> 3 : deterministic order 0,1,2,3.
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    EXPECT_EQ(g.topologicalOrder(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(TaskGraph, LinearizeMovesStagesIntoApplication)
{
    TaskGraph g;
    g.addNode(Stage("b", platform::WorkProfile{}, [](KernelCtx&) {},
                    nullptr));
    g.addNode(Stage("a", platform::WorkProfile{}, [](KernelCtx&) {},
                    nullptr));
    g.addEdge(0, 1);
    Application app("test", "none", "test");
    std::move(g).linearizeInto(app);
    ASSERT_EQ(app.numStages(), 2);
    EXPECT_EQ(app.stage(0).name(), "b");
    EXPECT_EQ(app.stage(1).name(), "a");
}

TEST(ProfilingTable, SetGetAndRangeTime)
{
    ProfilingTable t({"s0", "s1", "s2"}, {"cpu", "gpu"});
    EXPECT_EQ(t.numStages(), 3);
    EXPECT_EQ(t.numPus(), 2);
    t.set(0, 0, 1.0);
    t.set(1, 0, 2.0);
    t.set(2, 0, 4.0);
    EXPECT_DOUBLE_EQ(t.at(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(t.rangeTime(0, 2, 0), 7.0);
    EXPECT_DOUBLE_EQ(t.rangeTime(1, 1, 0), 2.0);
}

TEST(ProfilingTable, CsvRoundTrip)
{
    ProfilingTable t({"conv1", "pool1"}, {"big", "gpu"});
    t.set(0, 0, 1.5e-3);
    t.set(0, 1, 2.5e-4);
    t.set(1, 0, 3.25e-5);
    t.set(1, 1, 7.5e-6);
    t.setStddev(0, 0, 1e-5);

    std::stringstream ss;
    t.saveCsv(ss);
    const auto back = ProfilingTable::loadCsv(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->stages(), t.stages());
    EXPECT_EQ(back->pus(), t.pus());
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < 2; ++p) {
            EXPECT_DOUBLE_EQ(back->at(s, p), t.at(s, p));
            EXPECT_DOUBLE_EQ(back->stddevAt(s, p), t.stddevAt(s, p));
        }
}

TEST(ProfilingTable, CsvRejectsMalformedInput)
{
    for (const char* text :
         {"", "wrong header\n",
          "stage,pu,mean_s,stddev_s\na,b,notanumber,0\n",
          "stage,pu,mean_s,stddev_s\na,b,-1.0,0\n",
          // Missing one (stage, pu) combination.
          "stage,pu,mean_s,stddev_s\na,x,1,0\na,y,1,0\nb,x,1,0\n"}) {
        std::stringstream ss(text);
        EXPECT_FALSE(ProfilingTable::loadCsv(ss).has_value())
            << "accepted: " << text;
    }
}

TEST(Schedule, HomogeneousHasOneChunk)
{
    const Schedule s = Schedule::homogeneous(5, 2);
    EXPECT_EQ(s.numChunks(), 1);
    EXPECT_EQ(s.numStages(), 5);
    EXPECT_EQ(s.puOfStage(0), 2);
    EXPECT_EQ(s.puOfStage(4), 2);
}

TEST(Schedule, FromAssignmentRoundTrip)
{
    const std::vector<int> assign{0, 0, 3, 3, 3, 1};
    const Schedule s = Schedule::fromAssignment(assign);
    EXPECT_EQ(s.numChunks(), 3);
    EXPECT_EQ(s.toAssignment(), assign);
    EXPECT_EQ(s.compactString(), "003331");
}

TEST(Schedule, ValidityChecks)
{
    const Schedule s = Schedule::fromAssignment({0, 1, 1});
    EXPECT_TRUE(s.valid(3, 2));
    EXPECT_FALSE(s.valid(4, 2));  // wrong stage count
    EXPECT_FALSE(s.valid(3, 1));  // PU 1 out of range
}

TEST(Schedule, PredictedCosts)
{
    ProfilingTable t({"s0", "s1", "s2"}, {"cpu", "gpu"});
    // cpu: 1, 2, 4 ; gpu: 3, 1, 1
    t.set(0, 0, 1.0);
    t.set(1, 0, 2.0);
    t.set(2, 0, 4.0);
    t.set(0, 1, 3.0);
    t.set(1, 1, 1.0);
    t.set(2, 1, 1.0);

    const Schedule s = Schedule::fromAssignment({0, 1, 1});
    EXPECT_DOUBLE_EQ(s.chunkTime(t, 0), 1.0);
    EXPECT_DOUBLE_EQ(s.chunkTime(t, 1), 2.0);
    EXPECT_DOUBLE_EQ(s.bottleneckTime(t), 2.0);
    EXPECT_DOUBLE_EQ(s.gapness(t), 1.0);

    const Schedule h = Schedule::homogeneous(3, 0);
    EXPECT_DOUBLE_EQ(h.bottleneckTime(t), 7.0);
    EXPECT_DOUBLE_EQ(h.gapness(t), 0.0);
}

TEST(Schedule, ToStringUsesLabels)
{
    const auto soc = platform::jetsonOrinNano();
    const Schedule s = Schedule::fromAssignment({0, 0, 1});
    const std::string str = s.toString(soc, {"a", "b", "c"});
    EXPECT_NE(str.find("[a..b]->cpu"), std::string::npos);
    EXPECT_NE(str.find("[c]->gpu"), std::string::npos);
}

TEST(ScheduleEnumeration, PaperSpaceSize)
{
    // 9 stages on 4 PU classes: compositions into k <= 4 contiguous
    // chunks with distinct PUs: sum_k C(8, k-1) * P(4, k) = 2116.
    EXPECT_EQ(countSchedules(9, 4), 2116u);
}

TEST(ScheduleEnumeration, SmallSpacesByHand)
{
    EXPECT_EQ(countSchedules(1, 1), 1u);
    EXPECT_EQ(countSchedules(1, 3), 3u);
    EXPECT_EQ(countSchedules(2, 2), 2u + 2u); // 2 single + P(2,2)
    EXPECT_EQ(countSchedules(3, 2), 2u + 2u * 2u); // k=1:2, k=2: 2*2
}

TEST(ScheduleEnumeration, AllValidAndDistinct)
{
    const auto all = enumerateSchedules(5, 3);
    EXPECT_EQ(all.size(), countSchedules(5, 3));
    std::set<std::string> seen;
    for (const auto& s : all) {
        EXPECT_TRUE(s.valid(5, 3));
        EXPECT_TRUE(seen.insert(s.compactString()).second);
    }
}

TEST(ScheduleEnumeration, ChunkCountNeverExceedsPus)
{
    for (const auto& s : enumerateSchedules(6, 2))
        EXPECT_LE(s.numChunks(), 2);
}

TEST(Applications, AlexNetHasNineStages)
{
    const auto dense = apps::alexnetDense();
    EXPECT_EQ(dense.numStages(), 9);
    EXPECT_EQ(dense.name(), "AlexNet-Dense");
    EXPECT_EQ(dense.inputKind(), "Image");

    const auto sparse = apps::alexnetSparse();
    EXPECT_EQ(sparse.numStages(), 9);
    EXPECT_EQ(sparse.characteristics(), "Sparse Linear Algebra");
}

TEST(Applications, OctreeHasSevenStagesInPipelineOrder)
{
    const auto octree = apps::octreeApp();
    ASSERT_EQ(octree.numStages(), 7);
    const std::vector<std::string> expect{
        "morton", "sort", "unique", "radix_tree",
        "edge_count", "prefix_sum", "build_octree"};
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(octree.stage(i).name(),
                  expect[static_cast<std::size_t>(i)]);
}

TEST(Applications, WorkProfilesArePositive)
{
    for (const auto& app :
         {apps::alexnetDense(), apps::alexnetSparse(),
          apps::octreeApp()}) {
        for (const auto& stage : app.stages()) {
            EXPECT_GT(stage.work().flops, 0.0) << stage.name();
            EXPECT_GT(stage.work().bytes, 0.0) << stage.name();
            EXPECT_GT(stage.work().parallelFraction, 0.0);
            EXPECT_LE(stage.work().parallelFraction, 1.0);
        }
    }
}

TEST(Applications, SparseConvHasFewerFlopsThanDense)
{
    const auto dense = apps::alexnetDense();
    const auto sparse
        = apps::alexnetSparse(apps::AlexNetConfig{.batch = 1,
                                                  .sparse = true});
    // Same batch: pruning must cut conv flops by roughly the density.
    EXPECT_LT(sparse.stage(2).work().flops,
              dense.stage(2).work().flops * 0.05);
}

TEST(Applications, MakeTaskProducesRefreshableTasks)
{
    const auto app = apps::alexnetDense(apps::AlexNetConfig{.batch = 1});
    auto task = app.makeTask(0, 99);
    ASSERT_TRUE(task->hasBuffer("act0"));
    const float first = task->view<float>("act0")[0];
    app.refreshTask(*task, 1, 99);
    const float second = task->view<float>("act0")[0];
    EXPECT_NE(first, second); // different task index -> new input
    EXPECT_EQ(task->taskIndex(), 1);

    // Same index regenerates identical input (determinism).
    app.refreshTask(*task, 0, 99);
    EXPECT_EQ(task->view<float>("act0")[0], first);
}

} // namespace
} // namespace bt::core
