#include "runtime/run_types.hpp"

#include "common/logging.hpp"

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

} // namespace bt::runtime
