/**
 * @file
 * Real concurrent pipeline execution on the local host: the octree
 * application runs through the native BT-Implementer - long-lived
 * dispatcher threads, lock-free SPSC queues, recycled TaskObjects -
 * with every stage's kernels executing functionally and the outputs
 * validated per task. This is the executor a deployment on a physical
 * UMA SoC would use (paper Sec. 3.4). Exits non-zero if any schedule's
 * outputs fail validation.
 */

#include <cstdio>

#include "apps/octree_app.hpp"
#include "core/native_executor.hpp"
#include "platform/devices.hpp"

using namespace bt;

int
main()
{
    const auto soc = platform::nativeHost();
    std::printf("Native host: %d cores; running the 7-stage octree "
                "pipeline with real dispatcher threads\n",
                soc.pu(0).cores);

    auto app = apps::octreeApp(apps::OctreeConfig{
        .numPoints = 20000, .withValidator = true});

    bool all_valid = true;
    for (const auto& assignment :
         {std::vector<int>{0, 0, 0, 0, 0, 0, 0},
          std::vector<int>{0, 0, 0, 1, 1, 1, 1},
          std::vector<int>{1, 1, 0, 0, 0, 0, 0}}) {
        const auto schedule = core::Schedule::fromAssignment(
            assignment);
        std::vector<std::string> names;
        for (const auto& s : app.stages())
            names.push_back(s.name());

        runtime::RunConfig cfg;
        cfg.numTasks = 12;
        const core::NativeExecutor executor(soc, cfg);
        const auto result = executor.execute(app, schedule);
        all_valid = all_valid && result.valid();

        std::printf("\nschedule %s\n",
                    schedule.toString(soc, names).c_str());
        std::printf("  %d tasks in %.1f ms wall clock "
                    "(%.2f ms/task steady state)\n",
                    result.tasks, result.makespanSeconds * 1e3,
                    result.taskIntervalSeconds * 1e3);
        std::printf("  outputs: %s; affinity: %s\n",
                    result.valid() ? "all validated"
                                   : result.validationErrors.front()
                                         .c_str(),
                    result.affinityApplied ? "pinned"
                                           : "best effort");

        const auto stats = result.trace.stats();
        std::printf("  timeline: %d stage executions, bubble %.1f%%, "
                    "interfered %.1f%%, mean queue wait %.3f ms\n",
                    stats.events, stats.bubbleFraction * 1e2,
                    stats.interferedFraction * 1e2,
                    stats.meanQueueWaitSeconds * 1e3);
    }
    return all_valid ? 0 : 1;
}
