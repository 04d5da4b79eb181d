/**
 * @file
 * Measurement-noise sensitivity (extension; methodological robustness
 * of Sec. 5.2): how the predicted-vs-measured correlation of the
 * BetterTogether flow degrades as the device's timing jitter grows.
 * The paper's 30-repetition averaging is what keeps the table usable;
 * this sweep shows how much headroom that provides.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "flow/framework.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Prediction correlation vs. measurement noise",
                "robustness sweep around the Fig. 6 methodology");

    Table table({"App", "sigma=0", "1%", "3%", "6%", "10%"});
    CsvWriter csv("sensitivity_noise.csv",
                  {"app", "noise_sigma", "correlation"});

    for (int a = 0; a < kNumApps; ++a) {
        std::vector<std::string> row{
            kAppNames[static_cast<std::size_t>(a)]};
        for (const double sigma : {0.0, 0.01, 0.03, 0.06, 0.10}) {
            auto soc = platform::pixel7a();
            soc.noiseSigma = sigma;
            const Framework flow(soc);
            const auto app = paperApp(a);
            const auto cands
                = flow.optimize(flow.profile(app), {}).candidates;

            std::vector<double> predicted, measured;
            for (const auto& c : cands) {
                predicted.push_back(c.predictedLatency);
                measured.push_back(
                    flow.deploy(app, c.schedule).taskIntervalSeconds);
            }
            const double r = pearson(predicted, measured);
            row.push_back(Table::num(r, 3));
            csv.addRow({kAppNames[static_cast<std::size_t>(a)],
                        Table::num(sigma, 2), Table::num(r, 4)});
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::printf("\nShape check: correlation stays high through "
                "realistic jitter (a few percent) and erodes "
                "gracefully beyond it.\n");
    return 0;
}
