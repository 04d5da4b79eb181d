/**
 * @file
 * Small statistics toolbox used by the profiler and the benchmark
 * harness: summary statistics, geometric means, and Pearson correlation
 * (the accuracy metric of the paper's Fig. 6).
 */

#ifndef BT_COMMON_STATS_HPP
#define BT_COMMON_STATS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace bt {

/** Summary statistics of one sample vector. */
struct Summary
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0; ///< Sample standard deviation (n-1 denominator).
    double min = 0.0;
    double max = 0.0;
};

/** Compute summary statistics. Empty input yields an all-zero Summary. */
Summary summarize(std::span<const double> xs);

/** Arithmetic mean; zero for empty input. */
double mean(std::span<const double> xs);

/**
 * Geometric mean (computed in log space for stability). All inputs must be
 * positive; returns zero for empty input.
 */
double geomean(std::span<const double> xs);

/**
 * Pearson correlation coefficient between two equally sized samples.
 * Returns zero when either sample has no variance or fewer than two points,
 * matching how a flat predictor should score in the accuracy heatmaps.
 */
double pearson(std::span<const double> xs, std::span<const double> ys);

/**
 * The @p p-th percentile (p in [0, 100]) with linear interpolation
 * between order statistics, as serving-latency reports conventionally
 * compute p50/p99. Zero for empty input; @p xs need not be sorted.
 */
double percentile(std::span<const double> xs, double p);

} // namespace bt

#endif // BT_COMMON_STATS_HPP
