/**
 * @file
 * Multi-buffering sensitivity (extension; paper Sec. 3.4 uses "multiple
 * TaskObjects to enable overlapping execution" without quantifying how
 * many): steady-state interval and energy of the BetterTogether
 * schedule as the number of in-flight TaskObjects grows. One buffer
 * serializes the chunks; the curve flattens once every chunk can stay
 * busy.
 */

#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "bt.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/sim_executor.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Task interval vs. in-flight TaskObjects",
                "multi-buffering sensitivity (paper Sec. 3.4)");

    Table table({"Device", "App", "chunks", "B=1", "B=2", "B=3", "B=5",
                 "B=8"});
    CsvWriter csv("sensitivity_buffers.csv",
                  {"device", "app", "buffers", "ms_per_task",
                   "mj_per_task"});

    for (const auto& soc : devices()) {
        const Framework flow(soc);
        for (int a = 0; a < kNumApps; ++a) {
            const auto app = paperApp(a);
            const auto report = flow.run(app);

            std::vector<std::string> row{
                soc.name, kAppNames[static_cast<std::size_t>(a)],
                std::to_string(report.bestSchedule.numChunks())};
            for (const int buffers : {1, 2, 3, 5, 8}) {
                runtime::RunConfig cfg;
                cfg.numBuffers = buffers;
                const core::SimExecutor exec(flow.model(), cfg);
                const auto run
                    = exec.execute(app, report.bestSchedule);
                row.push_back(Table::num(run.latencyMs(), 3));
                csv.addRow({soc.name,
                            kAppNames[static_cast<std::size_t>(a)],
                            std::to_string(buffers),
                            Table::num(run.latencyMs(), 4),
                            Table::num(run.energyPerTaskJ() * 1e3,
                                       4)});
            }
            table.addRow(std::move(row));
        }
    }
    table.print(std::cout);
    std::printf("\nShape check: the interval drops until B reaches the "
                "chunk count, then flattens (the bottleneck chunk is "
                "saturated).\n");
    return 0;
}
