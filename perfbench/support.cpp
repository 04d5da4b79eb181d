#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace bt::perfbench {

double
median(std::span<const double> xs)
{
    return percentile(xs, 50.0);
}

double
fastRate(std::span<const double> window_rates)
{
    return percentile(window_rates, 90.0);
}

double
tailPercentileFor(std::size_t samples)
{
    // Ladder in basis points; integer arithmetic keeps the "at least
    // ten beyond" boundary exact (1000 samples -> p99, 999 -> p90).
    constexpr std::uint64_t kLadder[] = {9999, 9990, 9900, 9000, 5000};
    const auto n = static_cast<std::uint64_t>(samples);
    for (const std::uint64_t bp : kLadder)
        if (n * (10000 - bp) >= 10 * 10000)
            return static_cast<double>(bp) / 100.0;
    return 50.0;
}

Tail
tailOf(std::span<const double> xs)
{
    const double p = tailPercentileFor(xs.size());
    return {p, percentile(xs, p)};
}

std::vector<double>
poissonSchedule(std::uint64_t seed, double rate_per_s, double seconds)
{
    BT_ASSERT(rate_per_s > 0.0 && seconds >= 0.0);
    Rng rng(hashCombine(seed, 0x9015504eull));
    std::vector<double> due;
    due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
    double t = 0.0;
    for (;;) {
        // Exponential inter-arrival gap; 1 - u keeps the log finite.
        t += -std::log(1.0 - rng.nextDouble()) / rate_per_s;
        if (t >= seconds)
            return due;
        due.push_back(t);
    }
}

void
MetricSet::add(std::string name, double value, std::string unit)
{
    BT_ASSERT(std::isfinite(value), "metric ", name, " is not finite");
    const bool dup = std::any_of(
        entries_.begin(), entries_.end(),
        [&](const Metric& m) { return m.name == name; });
    BT_ASSERT(!dup, "metric ", name, " reported twice");
    entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string
MetricSet::resultJson(bool correct, std::int64_t attempted,
                      std::int64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Metric& m = entries_[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": "
            + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace bt::perfbench
