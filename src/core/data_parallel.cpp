#include "core/data_parallel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace bt::core {

namespace {

/** Per-stage terms of dataParallelLatency, in stage order. */
std::vector<double>
dataParallelStageTimes(const Application& app,
                       const ProfilingTable& table,
                       DataParallelConfig cfg)
{
    BT_ASSERT(table.numStages() == app.numStages(),
              "table does not match application");
    BT_ASSERT(cfg.splittableFraction >= 0.0
              && cfg.splittableFraction <= 1.0);

    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(app.numStages()));
    for (int s = 0; s < app.numStages(); ++s) {
        double inv_sum = 0.0;
        double fastest = std::numeric_limits<double>::infinity();
        for (int p = 0; p < table.numPus(); ++p) {
            const double t = table.at(s, p);
            BT_ASSERT(t > 0.0);
            inv_sum += 1.0 / t;
            fastest = std::min(fastest, t);
        }
        const double split_part
            = cfg.splittableFraction / inv_sum;
        const double serial_part
            = (1.0 - cfg.splittableFraction) * fastest;
        times.push_back(split_part + serial_part
                        + cfg.syncOverheadSeconds);
    }
    return times;
}

} // namespace

double
dataParallelLatency(const Application& app, const ProfilingTable& table,
                    DataParallelConfig cfg)
{
    const auto times = dataParallelStageTimes(app, table, cfg);
    return std::accumulate(times.begin(), times.end(), 0.0);
}

} // namespace bt::core
