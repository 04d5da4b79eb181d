#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"

namespace bt {

Summary
summarize(std::span<const double> xs)
{
    Summary s;
    s.count = xs.size();
    if (xs.empty())
        return s;

    s.min = xs[0];
    s.max = xs[0];
    double sum = 0.0;
    for (double x : xs) {
        sum += x;
        s.min = std::min(s.min, x);
        s.max = std::max(s.max, x);
    }
    s.mean = sum / static_cast<double>(xs.size());

    if (xs.size() > 1) {
        double ss = 0.0;
        for (double x : xs) {
            const double d = x - s.mean;
            ss += d * d;
        }
        s.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
    }
    return s;
}

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0)
        / static_cast<double>(xs.size());
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double logsum = 0.0;
    for (double x : xs) {
        BT_ASSERT(x > 0.0, "geomean requires positive inputs");
        logsum += std::log(x);
    }
    return std::exp(logsum / static_cast<double>(xs.size()));
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    BT_ASSERT(xs.size() == ys.size(), "pearson needs equal sized samples");
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;

    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
percentile(std::span<const double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    BT_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos
        = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

} // namespace bt
