/**
 * @file
 * Exact order statistics for latency samples. Serving-systems
 * tail-latency reporting (p50/p95/p99) uses the nearest-rank
 * definition -- no interpolation, no streaming sketches -- so two
 * runs over the same samples produce the same bytes and a percentile
 * is always a value that actually occurred. The workhorse
 * computeLatencyStats selects each rank with std::nth_element (O(n)
 * per rank instead of one O(n log n) sort; the selected values are
 * bit-identical to indexing a full sort). NaN samples (e.g. steps
 * that never ran) are excluded up front rather than poisoning the
 * selection.
 */

#ifndef DIVA_COMMON_PERCENTILE_H
#define DIVA_COMMON_PERCENTILE_H

#include <cstddef>
#include <span>
#include <vector>

namespace diva
{

/**
 * Nearest-rank percentile of `sorted` (ascending, NaN-free): the
 * smallest element with at least p percent of the samples at or below
 * it. p is clamped to [0, 100]; an empty vector yields NaN.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Tail-latency summary of one sample set. */
struct LatencyStats
{
    /** Finite samples counted (NaN inputs are excluded). */
    std::size_t count = 0;

    double meanSec = 0.0;
    double p50Sec = 0.0;
    double p95Sec = 0.0;
    double p99Sec = 0.0;
    double maxSec = 0.0;
};

/**
 * Exact stats over `samples` (taken by value; reordered in place by
 * the per-rank selections). NaN samples are dropped first; an empty
 * (or all-NaN) set yields count 0 with every statistic NaN. The mean
 * accumulates in the samples' input order.
 */
LatencyStats computeLatencyStats(std::vector<double> samples);

/**
 * computeLatencyStats over a caller-owned scratch buffer: identical
 * statistics (bit for bit), but the samples are reordered in place
 * instead of being copied into a fresh vector. For callers that slice
 * many small sample runs out of one arena -- the fleet's per-tenant
 * stats -- this removes an allocation per call.
 */
LatencyStats computeLatencyStatsScratch(double *samples,
                                        std::size_t count);

/**
 * Same statistics over the concatenation of `buffers` (read in place,
 * never modified), with the mean accumulated in ascending order as if
 * over a full sort. The aggregate CSV/JSON rows are the only emitters
 * of meanSec and have always summed the sorted samples, so they call
 * this variant to keep their bytes stable; percentiles, count and max
 * are bit-identical to computeLatencyStats. Callers pass the buffers
 * they already hold (the serve loop its tenants', the fleet its
 * pods'); the result is bit-equal to the call on one concatenated
 * buffer.
 */
LatencyStats computeLatencyStatsSortedMean(
    const std::vector<std::span<const double>> &buffers);

} // namespace diva

#endif // DIVA_COMMON_PERCENTILE_H
