#include "core/autotuner.hpp"

#include <algorithm>
#include <cstdint>

#include "common/logging.hpp"
#include "sched/thread_pool.hpp"

namespace bt::core {

double
TuningReport::autotuningGain() const
{
    // The predicted-best schedule is the one ranked first by the
    // optimizer (rankPredicted == 0); the gain is how much faster the
    // measured best is.
    for (const auto& t : all) {
        if (t.rankPredicted == 0) {
            BT_ASSERT(best().measuredLatency > 0.0);
            return t.measuredLatency / best().measuredLatency;
        }
    }
    // Every well-formed report carries the optimizer's first-ranked
    // candidate; its absence means the report was truncated or stitched
    // together by hand. Returning a silent 1.0 here used to mask that.
    BT_PANIC("tuning.malformed",
             "malformed TuningReport: no candidate with rankPredicted "
             "== 0 among ",
             all.size(), " tuned candidates");
}

TuningReport
AutoTuner::tune(const Application& app,
                const std::vector<Candidate>& candidates) const
{
    BT_ASSERT(!candidates.empty(), "autotuner needs candidates");
    BT_ASSERT(threads_ >= 1, "autotuner thread count must be positive");

    // Measure every candidate. Each run is self-contained (a
    // VirtualTimeBackend run builds its own session, engine, and energy
    // meter over const inputs), so the campaign fans out over a worker
    // team; each run lands in its candidate's indexed slot. Runs are
    // untraced whatever the executor's config says: the report keeps
    // only timings, which tracing never changes.
    const std::size_t n = candidates.size();
    std::vector<runtime::RunResult> runs(n);
    const int team = std::min(threads_, static_cast<int>(n));
    if (team > 1) {
        sched::ThreadPool pool(team);
        pool.parallelFor(
            0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
                const auto idx = static_cast<std::size_t>(i);
                runs[idx]
                    = executor_.measure(app, candidates[idx].schedule);
            });
    } else {
        for (std::size_t i = 0; i < n; ++i)
            runs[i] = executor_.measure(app, candidates[i].schedule);
    }

    // Merge in candidate order: the campaign-cost sum folds in the same
    // order as a serial campaign, so the report is bit-identical at any
    // thread count.
    TuningReport report;
    report.all.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const runtime::RunResult& run = runs[i];
        TunedCandidate tc;
        tc.candidate = candidates[i];
        tc.measuredLatency = run.taskIntervalSeconds;
        tc.rankPredicted = static_cast<int>(i);
        report.campaignCostSeconds
            += std::max(run.makespanSeconds, windowSeconds);
        report.all.push_back(tc);
    }

    std::stable_sort(report.all.begin(), report.all.end(),
                     [](const TunedCandidate& a, const TunedCandidate& b)
                     {
                         return a.measuredLatency < b.measuredLatency;
                     });
    report.bestIndex = 0;
    return report;
}

} // namespace bt::core
