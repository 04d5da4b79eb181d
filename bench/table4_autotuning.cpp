/**
 * @file
 * Reproduces paper Table 4: measured and predicted latency of the top
 * 10 optimizer candidates for AlexNet-sparse on the Google Pixel, the
 * speedup of each against the predicted-best (schedule 1), and the
 * autotuning gain of picking the measured best (Sec. 3.3, level 3).
 */

#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "flow/framework.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Top-10 schedules, AlexNet-sparse on Google Pixel (ms)",
                "paper Table 4");

    const Framework flow(platform::pixel7a());
    const auto app = paperApp(1);

    auto cands = flow.optimize(flow.profile(app), {}).candidates;
    if (cands.size() > 10)
        cands.resize(10);
    const auto report = flow.autotune(app, cands);

    // Re-assemble in predicted rank order for the table rows.
    std::vector<const core::TunedCandidate*> by_rank(cands.size());
    for (const auto& tc : report.all)
        by_rank[static_cast<std::size_t>(tc.rankPredicted)] = &tc;

    Table table({"#", "Measured", "Predicted", "Speedup vs #1",
                 "paper Measured", "paper Predicted"});
    CsvWriter csv("table4_autotuning.csv",
                  {"rank", "measured_ms", "predicted_ms", "speedup",
                   "schedule"});

    const double first_measured = by_rank[0]->measuredLatency;
    for (std::size_t i = 0; i < by_rank.size(); ++i) {
        const auto& tc = *by_rank[i];
        table.addRow(
            {std::to_string(i + 1),
             Table::num(tc.measuredLatency * 1e3, 2),
             Table::num(tc.candidate.predictedLatency * 1e3, 2),
             Table::num(first_measured / tc.measuredLatency, 2),
             Table::num(kTable4Measured[i], 2),
             Table::num(kTable4Predicted[i], 2)});
        csv.addRow({std::to_string(i + 1),
                    Table::num(tc.measuredLatency * 1e3, 4),
                    Table::num(tc.candidate.predictedLatency * 1e3, 4),
                    Table::num(first_measured / tc.measuredLatency, 4),
                    tc.candidate.schedule.compactString()});
    }
    table.print(std::cout);

    std::printf("\nAutotuning gain (measured best vs predicted best): "
                "%.2fx (paper: 1.35x)\n",
                report.autotuningGain());
    std::printf("Autotuning campaign virtual cost: %.1f s (paper: "
                "~200 s per device/application)\n",
                report.campaignCostSeconds);
    std::printf("Shape check: predicted values cluster into tiers; "
                "measured values re-rank within tiers.\n");
    return 0;
}
