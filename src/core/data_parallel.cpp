#include "core/data_parallel.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace bt::core {

double
dataParallelLatency(const Application& app, const ProfilingTable& table)
{
    BT_ASSERT(table.numStages() == app.numStages(),
              "table does not match application");
    double total = 0.0;
    for (int s = 0; s < app.numStages(); ++s) {
        double inv_sum = 0.0;
        double fastest = std::numeric_limits<double>::infinity();
        for (int p = 0; p < table.numPus(); ++p) {
            const double t = table.at(s, p);
            BT_ASSERT(t > 0.0);
            inv_sum += 1.0 / t;
            fastest = std::min(fastest, t);
        }
        const double split_part = kDataParallelSplittable / inv_sum;
        const double serial_part
            = (1.0 - kDataParallelSplittable) * fastest;
        total += split_part + serial_part + kDataParallelSyncSeconds;
    }
    return total;
}

} // namespace bt::core
