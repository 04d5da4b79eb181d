#include "core/pipeline.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::core {

double
BetterTogetherReport::bestBaselineSeconds() const
{
    return std::min(cpuBaselineSeconds, gpuBaselineSeconds);
}

double
BetterTogetherReport::speedupOverBestBaseline() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return bestBaselineSeconds() / bestLatencySeconds;
}

double
BetterTogetherReport::speedupOverCpu() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return cpuBaselineSeconds / bestLatencySeconds;
}

double
BetterTogetherReport::speedupOverGpu() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return gpuBaselineSeconds / bestLatencySeconds;
}

} // namespace bt::core
