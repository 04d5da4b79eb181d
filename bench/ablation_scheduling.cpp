/**
 * @file
 * Scheduling-strategy comparison (extension; paper Secs. 1 and 6):
 * BetterTogether's static pipelines vs the two alternatives the paper
 * argues against -
 *   - *dynamic greedy*: StarPU-style runtime dispatch of every
 *     (task, stage) to the best idle PU, at three different runtime
 *     overhead levels;
 *   - *data-parallel*: every stage split across all PUs with a barrier
 *     (predicted; the paper's Sec. 1 motivating example).
 */

#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "bt.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/data_parallel.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Static pipelining vs dynamic greedy vs data-parallel",
                "extension of paper Secs. 1 & 6; ms per task, lower is "
                "better");

    Table table({"Device", "App", "BT static", "dyn 0us", "dyn 50us",
                 "dyn 200us", "data-parallel"});
    CsvWriter csv("ablation_scheduling.csv",
                  {"device", "app", "variant", "ms_per_task"});

    std::vector<double> bt_vs_dyn;
    for (const auto& soc : devices()) {
        const Framework bt_flow(soc);
        for (int a = 0; a < kNumApps; ++a) {
            const auto app = paperApp(a);
            const auto report = bt_flow.run(app);
            const double bt_ms = report.bestLatencySeconds * 1e3;

            std::vector<std::string> row{
                soc.name, kAppNames[static_cast<std::size_t>(a)],
                Table::num(bt_ms, 2)};
            csv.addRow({soc.name,
                        kAppNames[static_cast<std::size_t>(a)],
                        "bt_static", Table::num(bt_ms, 4)});

            for (const double overhead_us : {0.0, 50.0, 200.0}) {
                const runtime::GreedyDispatch greedy{
                    &report.profile.interference, overhead_us};
                const double ms
                    = runtime::VirtualTimeBackend(bt_flow.model())
                          .run(app, greedy, {})
                          .taskIntervalSeconds
                    * 1e3;
                row.push_back(Table::num(ms, 2));
                csv.addRow({soc.name,
                            kAppNames[static_cast<std::size_t>(a)],
                            "dynamic_"
                                + Table::num(overhead_us, 0) + "us",
                            Table::num(ms, 4)});
                if (overhead_us == 50.0)
                    bt_vs_dyn.push_back(ms / bt_ms);
            }

            const double dp_ms = core::dataParallelLatency(
                                     app, report.profile.interference)
                * 1e3;
            row.push_back(Table::num(dp_ms, 2));
            csv.addRow({soc.name,
                        kAppNames[static_cast<std::size_t>(a)],
                        "data_parallel", Table::num(dp_ms, 4)});
            table.addRow(std::move(row));
        }
    }
    table.print(std::cout);
    std::printf("\nGeomean advantage of static BT over dynamic greedy "
                "(50us dispatch): %.2fx\n",
                geomean(bt_vs_dyn));
    std::printf("Shape check: dynamic degrades with dispatch overhead; "
                "data-parallel loses wherever a PU executes a stage it "
                "is ill-suited for (paper Sec. 1).\n");
    return 0;
}
