#include "runtime/run_types.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace bt::runtime {

int
RunConfig::resolveBuffers(int requested, int slots)
{
    BT_ASSERT(slots > 0);
    return requested > 0 ? requested : slots + 1;
}

int
RunConfig::resolveBuffers(int num_chunks) const
{
    return resolveBuffers(numBuffers, num_chunks);
}

std::vector<PlanParseError>
RunConfig::problems(int num_stages, int num_pus) const
{
    std::vector<PlanParseError> out;
    atLeastRule(out, "numTasks", numTasks, 1);
    atLeastRule(out, "warmupTasks", warmupTasks, 0);
    atLeastRule(out, "queueCapacity", queueCapacity, 1);
    atLeastRule(out, "recovery.maxRetries", recovery.maxRetries, 0);
    for (auto& p : faults.problems(num_pus, num_stages)) {
        p.message.insert(0, "faults.");
        out.push_back(std::move(p));
    }
    return out;
}

void
RunConfig::requireInRange(int num_stages, int num_pus) const
{
    if (const std::string bad = rangeErrors(problems(num_stages, num_pus));
        !bad.empty())
        BT_PANIC("run.range", bad);
}

void
finalizeTiming(RunResult& result, std::span<const double> inject_time,
               std::span<const double> complete_time, int warmup_tasks,
               bool sort_completions)
{
    const int n = result.tasks;
    BT_ASSERT(n > 0
              && complete_time.size() == static_cast<std::size_t>(n));

    std::vector<double> completions(complete_time.begin(),
                                    complete_time.end());
    if (sort_completions)
        std::sort(completions.begin(), completions.end());

    const int w = std::min(warmup_tasks, n - 1);
    if (n - w >= 2) {
        result.taskIntervalSeconds
            = (completions[static_cast<std::size_t>(n - 1)]
               - completions[static_cast<std::size_t>(w)])
            / static_cast<double>(n - 1 - w);
    } else {
        result.taskIntervalSeconds
            = result.makespanSeconds / static_cast<double>(n);
    }

    std::vector<double> latencies(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        latencies[static_cast<std::size_t>(t)]
            = complete_time[static_cast<std::size_t>(t)]
            - inject_time[static_cast<std::size_t>(t)];
    result.meanLatencySeconds = mean(latencies);
}

void
finalizeBusyFractions(RunResult& result,
                      std::span<const double> busy_seconds)
{
    result.chunkBusyFraction.resize(busy_seconds.size());
    for (std::size_t c = 0; c < busy_seconds.size(); ++c)
        result.chunkBusyFraction[c] = result.makespanSeconds > 0.0
            ? busy_seconds[c] / result.makespanSeconds
            : 0.0;
}

} // namespace bt::runtime
