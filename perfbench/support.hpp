/**
 * @file
 * Measurement helpers of the outside-in benchmark: the tail-percentile
 * rule, the seeded open-loop arrival schedule, the metric set that
 * becomes the result line, and small timing utilities. Kept free of the
 * framework's own layers so selftest.cpp can check them in isolation.
 */

#ifndef BT_PERFBENCH_SUPPORT_HPP
#define BT_PERFBENCH_SUPPORT_HPP

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bt::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** Median of @p xs (0 for empty input). */
double median(std::span<const double> xs);

/**
 * The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
 * leaves at least ten of @p samples beyond it. Fewer than 20 samples
 * fall back to the median.
 */
double tailPercentileFor(std::size_t samples);

/**
 * The fast decile of many short windows' rates: their 90th percentile.
 * On the 4-vCPU virtual machine the benchmark was tuned on, a
 * single-threaded caller runs for seconds at a time either fast or about
 * 1.7x slower, whatever it does, so a run's median rate reports which
 * state dominated the run, and its fast decile less so.
 */
double fastRate(std::span<const double> window_rates);

/** A tail timing: the percentile the rule picked and its value. */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
};

/** tailPercentileFor(xs.size()) applied to @p xs. */
Tail tailOf(std::span<const double> xs);

/**
 * Due times (seconds from the start of the phase, ascending, all below
 * @p seconds) of a Poisson arrival process at @p rate_per_s. A pure
 * function of its arguments: the same seed gives the same schedule.
 */
std::vector<double> poissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The metrics of one run, in insertion order. Every name appears once:
 * add() panics on a duplicate or a non-finite value.
 */
class MetricSet
{
  public:
    void add(std::string name, double value, std::string unit);

    const std::vector<Metric>& entries() const { return entries_; }

    /** The single-line result object:
     *  {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
    std::string resultJson(bool correct, std::int64_t attempted,
                           std::int64_t failed) const;

  private:
    std::vector<Metric> entries_;
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

} // namespace bt::perfbench

#endif // BT_PERFBENCH_SUPPORT_HPP
