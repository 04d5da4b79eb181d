/**
 * @file
 * Reproduces paper Table 3: raw homogeneous baseline latency (ms) for
 * each device, CPU (big cores) vs GPU, across the three applications.
 * Measured numbers come from the simulated executor; the paper's
 * numbers are printed alongside for shape comparison.
 */

#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "common/csv.hpp"
#include "bt.hpp"
#include "common/table.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Raw baseline performance (ms), CPU | GPU",
                "paper Table 3; * marks the faster side");

    Table table({"Device", "App", "measured CPU|GPU", "paper CPU|GPU",
                 "CPU ratio", "GPU ratio"});
    CsvWriter csv("table3_baselines.csv",
                  {"device", "app", "cpu_ms", "gpu_ms", "paper_cpu_ms",
                   "paper_gpu_ms"});

    const auto socs = devices();
    for (int d = 0; d < kNumDevices; ++d) {
        const auto& soc = socs[static_cast<std::size_t>(d)];
        const Framework bt_flow(soc);
        for (int a = 0; a < kNumApps; ++a) {
            const auto app = paperApp(a);
            const double cpu_ms = bt_flow.measureHomogeneous(
                                      app, soc.bigCpuIndex())
                * 1e3;
            const double gpu_ms = bt_flow.measureHomogeneous(
                                      app, soc.gpuIndex())
                * 1e3;
            const auto paper
                = kTable3[static_cast<std::size_t>(d)]
                         [static_cast<std::size_t>(a)];
            table.addRow({soc.name,
                          kAppNames[static_cast<std::size_t>(a)],
                          baselineCell(cpu_ms, gpu_ms),
                          baselineCell(paper.cpuMs, paper.gpuMs),
                          Table::num(cpu_ms / paper.cpuMs, 2),
                          Table::num(gpu_ms / paper.gpuMs, 2)});
            csv.addRow({soc.name,
                        kAppNames[static_cast<std::size_t>(a)],
                        Table::num(cpu_ms, 4), Table::num(gpu_ms, 4),
                        Table::num(paper.cpuMs, 2),
                        Table::num(paper.gpuMs, 2)});
        }
    }
    table.print(std::cout);
    std::printf("\nShape check: the faster side (*) should agree with "
                "the paper in every row.\n");
    return 0;
}
