#include "simt/simt.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace bt::simt {

LaunchConfig
LaunchConfig::cover(std::int64_t n, int block, int max_grid)
{
    BT_ASSERT(block > 0 && max_grid > 0);
    LaunchConfig cfg;
    cfg.blockDim = block;
    if (n <= 0) {
        cfg.gridDim = 1;
        return cfg;
    }
    // Round up without the `n + block - 1` addition, which overflows for
    // n near INT64_MAX and used to clamp to a garbage (negative) grid.
    const std::int64_t blocks = n / block + (n % block != 0 ? 1 : 0);
    cfg.gridDim = static_cast<int>(std::min<std::int64_t>(blocks, max_grid));
    return cfg;
}

std::vector<int>
shuffledBlockOrder(int grid_dim, std::uint64_t seed)
{
    std::vector<int> order(static_cast<std::size_t>(grid_dim));
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    // Fisher-Yates with the framework RNG for reproducibility.
    for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j
            = static_cast<std::size_t>(rng.nextBounded(i));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

} // namespace bt::simt
