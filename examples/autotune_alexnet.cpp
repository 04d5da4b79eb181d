/**
 * @file
 * The three optimization levels in slow motion, on AlexNet-sparse /
 * Google Pixel 7a: (1) the latency/utilization feasibility class, (2)
 * the K = 20 diverse candidates with their performance tiers, (3) the
 * autotuning pass that reranks candidates by actual measurement and
 * recovers the model's residual error (paper Sec. 3.3 and Table 4).
 */

#include <cstdio>

#include "apps/alexnet.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"

using namespace bt;

int
main()
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();

    // Level 0: interference-aware profiling.
    const core::Profiler profiler(model);
    const auto profile = profiler.profile(app);
    std::printf("Profiling done: %d stages x %d PUs, virtual cost "
                "%.0f s (paper reports ~6 min per device/app)\n\n",
                profile.interference.numStages(),
                profile.interference.numPus(),
                profile.profilingCostSeconds);

    // Levels 1+2: candidate generation.
    core::Optimizer optimizer(soc, profile.interference);
    const auto candidates = optimizer.optimize();
    const auto& st = optimizer.stats();
    std::printf("Level 1: unrestricted latency optimum %.3f ms; "
                "accepted bound %.3f ms; utilization: %d PU classes; "
                "minimal gapness %.3f ms\n",
                st.unrestrictedLatency * 1e3, st.latencyBound * 1e3,
                st.requiredPus, st.minimalGapness * 1e3);
    std::printf("Level 2: %zu candidates (%llu schedules enumerated)\n\n",
                candidates.size(),
                static_cast<unsigned long long>(st.solverNodes));

    // Level 3: autotuning.
    const core::SimExecutor executor(model);
    const core::AutoTuner tuner(executor);
    const auto report = tuner.tune(app, candidates);

    std::printf("%-4s %-12s %-12s %-10s %s\n", "#", "predicted",
                "measured", "meas.rank", "schedule");
    std::vector<const core::TunedCandidate*> by_rank(
        report.all.size());
    for (const auto& tc : report.all)
        by_rank[static_cast<std::size_t>(tc.rankPredicted)] = &tc;
    for (std::size_t i = 0; i < by_rank.size(); ++i) {
        int meas_rank = 0;
        for (std::size_t j = 0; j < report.all.size(); ++j)
            if (&report.all[j] == by_rank[i])
                meas_rank = static_cast<int>(j) + 1;
        std::printf("%-4zu %-12.3f %-12.3f %-10d %s\n", i + 1,
                    by_rank[i]->candidate.predictedLatency * 1e3,
                    by_rank[i]->measuredLatency * 1e3, meas_rank,
                    by_rank[i]->candidate.schedule.compactString()
                        .c_str());
    }

    std::printf("\nAutotuning gain over predicted-best: %.2fx "
                "(paper observed 1.35x on this workload)\n",
                report.autotuningGain());
    std::printf("Campaign virtual cost: %.1f s (paper: ~200 s)\n",
                report.campaignCostSeconds);
    return 0;
}
