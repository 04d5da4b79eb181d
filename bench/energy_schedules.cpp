/**
 * @file
 * Energy analysis of pipeline schedules (extension beyond the paper's
 * latency-only evaluation; the paper motivates edge processing with
 * reduced energy, Sec. 1). For each (device, application) pair, the
 * autotuned BetterTogether schedule is compared against the
 * homogeneous baselines on energy per task, average power, and
 * energy-delay product. Device power envelopes follow the paper's
 * figures (Jetson 25 W vs 7 W low-power mode).
 */

#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "bt.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Energy per task / average power of schedules",
                "extension: energy-aware view of the Fig. 4 results");

    std::printf("Device power envelopes (peak W): ");
    for (const auto& soc : devices())
        std::printf("%s=%.1f  ", soc.name.c_str(), soc.peakPowerW());
    std::printf("\n(paper: Jetson 25 W, low-power mode 7 W)\n\n");

    Table table({"Device", "App", "sched", "ms/task", "mJ/task",
                 "avg W", "EDP (mJ*ms)"});
    CsvWriter csv("energy_schedules.csv",
                  {"device", "app", "variant", "ms_per_task",
                   "mj_per_task", "avg_w"});

    std::vector<double> bt_vs_gpu_energy;
    for (const auto& soc : devices()) {
        const Framework bt_flow(soc);
        for (int a = 0; a < kNumApps; ++a) {
            const auto app = paperApp(a);
            const auto report = bt_flow.run(app);

            struct Variant
            {
                const char* name;
                core::Schedule schedule;
            };
            const Variant variants[] = {
                {"BT", report.bestSchedule},
                {"CPU", core::Schedule::homogeneous(
                            app.numStages(), report.cpuBaselinePu)},
                {"GPU", core::Schedule::homogeneous(
                            app.numStages(), report.gpuBaselinePu)},
            };

            double gpu_energy = 0.0, bt_energy = 0.0;
            for (const auto& v : variants) {
                const auto run = bt_flow.deploy(app, v.schedule);
                const double ms = run.taskIntervalSeconds * 1e3;
                const double mj = run.energyPerTaskJ() * 1e3;
                if (std::string(v.name) == "GPU")
                    gpu_energy = mj;
                if (std::string(v.name) == "BT")
                    bt_energy = mj;
                table.addRow({soc.name,
                              kAppNames[static_cast<std::size_t>(a)],
                              v.name, Table::num(ms, 2),
                              Table::num(mj, 2),
                              Table::num(run.averagePowerW(), 2),
                              Table::num(mj * ms, 1)});
                csv.addRow({soc.name,
                            kAppNames[static_cast<std::size_t>(a)],
                            v.name, Table::num(ms, 4),
                            Table::num(mj, 4),
                            Table::num(run.averagePowerW(), 3)});
            }
            bt_vs_gpu_energy.push_back(gpu_energy / bt_energy);
        }
    }
    table.print(std::cout);
    std::printf("\nGeomean energy-per-task improvement of BT over "
                "GPU-only: %.2fx\n",
                geomean(bt_vs_gpu_energy));
    std::printf("Note: pipelining keeps more PUs powered, so energy "
                "can regress even when latency improves - the "
                "latency/energy trade-off is schedule dependent.\n");
    return 0;
}
