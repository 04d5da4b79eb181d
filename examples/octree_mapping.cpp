/**
 * @file
 * Stage-to-PU mapping exploration for the Octree workload: profiles the
 * seven stages on every simulated device, prints the per-PU latency
 * tables (the Fig. 1 story), and shows which schedule BetterTogether
 * picks on each device - illustrating that schedules are not portable
 * across SoCs (paper Sec. 1, "Heterogeneous Parallelism").
 */

#include <cstdio>
#include <iostream>

#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "platform/devices.hpp"

using namespace bt;

int
main()
{
    const auto app = apps::octreeApp();
    std::vector<std::string> names;
    for (const auto& s : app.stages())
        names.push_back(s.name());

    for (const auto& soc : platform::paperDevices()) {
        std::printf("=== %s ===\n", soc.name.c_str());

        const Framework bt_flow(soc);
        const auto report = bt_flow.run(app);

        std::printf("Interference-aware stage latencies (ms):\n");
        report.profile.interference.print(std::cout);

        std::printf("\nChosen schedule: %s\n",
                    report.bestSchedule.toString(soc, names).c_str());
        std::printf("Pipeline: %.3f ms/task | CPU-only %.3f | "
                    "GPU-only %.3f | speedup %.2fx\n\n",
                    report.bestLatencySeconds * 1e3,
                    report.cpuBaselineSeconds * 1e3,
                    report.gpuBaselineSeconds * 1e3,
                    report.speedupOverBestBaseline());
    }

    std::printf("Note how the same application maps differently on "
                "each device: schedules are not portable, which is why "
                "the profile -> optimize flow runs per device.\n");
    return 0;
}
