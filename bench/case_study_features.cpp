/**
 * @file
 * Case study (extension): the full BetterTogether flow applied to a
 * workload the paper never saw - the seven-stage feature-extraction
 * pipeline (apps/features.hpp). The point is the framework's claim to
 * generality: no per-workload tuning, just Stage definitions with
 * WorkProfiles, and the profile -> optimize -> autotune flow produces
 * specialized schedules per device.
 */

#include <cstdio>
#include <iostream>

#include "apps/features.hpp"
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
    printHeader("Case study: feature extraction (unseen workload)",
                "framework-generality check beyond the paper's three "
                "applications");

    const auto app = apps::featuresApp();
    std::vector<std::string> names;
    for (const auto& s : app.stages())
        names.push_back(s.name());

    Table table({"Device", "BT (ms)", "CPU (ms)", "GPU (ms)",
                 "speedup", "correlation", "schedule"});
    CsvWriter csv("case_study_features.csv",
                  {"device", "bt_ms", "cpu_ms", "gpu_ms", "speedup",
                   "correlation", "schedule"});

    std::vector<double> speedups;
    for (const auto& soc : devices()) {
        const Framework flow(soc);
        const auto report = flow.run(app);

        // Model-accuracy check on the fresh workload.
        std::vector<double> predicted, measured;
        for (const auto& c : report.candidates) {
            predicted.push_back(c.predictedLatency);
            measured.push_back(
                flow.deploy(app, c.schedule).taskIntervalSeconds);
        }
        const double r = pearson(predicted, measured);
        const double speedup = report.speedupOverBestBaseline();
        speedups.push_back(speedup);

        table.addRow({soc.name,
                      Table::num(report.bestLatencySeconds * 1e3, 2),
                      Table::num(report.cpuBaselineSeconds * 1e3, 2),
                      Table::num(report.gpuBaselineSeconds * 1e3, 2),
                      Table::num(speedup, 2) + "x", Table::num(r, 3),
                      report.bestSchedule.toString(soc, names)});
        csv.addRow({soc.name,
                    Table::num(report.bestLatencySeconds * 1e3, 4),
                    Table::num(report.cpuBaselineSeconds * 1e3, 4),
                    Table::num(report.gpuBaselineSeconds * 1e3, 4),
                    Table::num(speedup, 4), Table::num(r, 4),
                    report.bestSchedule.compactString()});
    }
    table.print(std::cout);
    std::printf("\nGeomean speedup on the unseen workload: %.2fx; "
                "schedules differ per device, as the paper's "
                "portability argument predicts.\n",
                geomean(speedups));
    return 0;
}
