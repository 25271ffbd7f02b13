/**
 * @file
 * Exact order statistics for latency samples. Serving-systems
 * tail-latency reporting (p50/p95/p99) uses the nearest-rank
 * definition -- no interpolation, no streaming sketches -- so two
 * runs over the same samples produce the same bytes and a percentile
 * is always a value that actually occurred.
 *
 * There are two exact paths, chosen by sample count: a set of at most
 * 32 samples (the per-tenant case) is sorted and indexed; a larger
 * one goes through a LatencyCensus, the (value -> count) table whose
 * ascending run -- each distinct value once, with its count -- feeds
 * rankStats, whose rank lookups over cumulative counts index the same
 * elements a sort would. Runs from disjoint sample sets (the fleet's
 * pods) combine with mergeAscendingRuns, a merge of sorted runs rather
 * than of tables, so the fleet-wide row costs no second sort. NaN
 * samples (e.g. steps that never ran) are excluded up front rather
 * than poisoning the ranks. The approximate counterpart for
 * bounded-memory telemetry is obs::QuantileSketch.
 */

#ifndef DIVA_COMMON_PERCENTILE_H
#define DIVA_COMMON_PERCENTILE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
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
 * (value, count) pairs ascending by value, each distinct value once
 * with a count >= 1: a sample set as rankStats reads it. "Ascending"
 * is orderKey order, which sorts -0.0 just before +0.0 (one of the
 * orders a sort may produce) and keeps the two distinct.
 */
using LatencyRun = std::vector<std::pair<double, std::uint64_t>>;

/** Monotone map from non-NaN doubles to unsigned keys. */
inline std::uint64_t
orderKey(double v)
{
    const auto b = std::bit_cast<std::uint64_t>(v);
    return b >> 63 ? ~b : b | (std::uint64_t(1) << 63);
}

/**
 * Stats of the samples an ascending run describes: the mean sums
 * them in ascending order, each value added `count` times (the exact
 * addition sequence of summing the sorted array), and the rank
 * lookups over the cumulative counts pick the elements a sort would.
 * An empty run yields count 0, NaN stats.
 */
LatencyStats rankStats(const LatencyRun &ascending);

/**
 * One ascending run holding every sample of `runs`: a merge of the
 * sorted runs by orderKey, summing the counts of equal keys. The
 * result is the same for any order of `runs`.
 */
LatencyRun mergeAscendingRuns(std::vector<LatencyRun> runs);

/**
 * Exact census of a sample set: every distinct value and how often it
 * occurred, in an open-addressing table that grows without a cap.
 * Values are keyed by orderKey, so ascending key order is ascending
 * value order for every non-NaN double and ascending() is a
 * LatencyRun. NaN samples are skipped.
 */
class LatencyCensus
{
  public:
    void
    add(double v)
    {
        if (v == v) // NaN samples are excluded
            bump(orderKey(v));
    }

    /** Samples counted. */
    std::uint64_t
    count() const
    {
        return count_;
    }

    /** Every distinct value with its count, ascending by value. */
    LatencyRun ascending() const;

    /** rankStats(ascending()): the mean summed in ascending value
     *  order, as over a full sort (the serve and fleet aggregate rows
     *  have always summed that way). */
    LatencyStats stats() const;

    /** Stats whose mean is `sum / count()`, for callers that summed
     *  the samples in their own order (e.g. chronologically). */
    LatencyStats stats(double sum) const;

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t count; // 0 marks an empty slot
    };

    /** Home slot of `key` (the table must be non-empty). */
    std::size_t
    home(std::uint64_t key) const
    {
        return std::size_t((key * kMul) >> shift_);
    }

    /** Count one more `key`, inserting it if absent. */
    void bump(std::uint64_t key);

    /** Rehash into `size` (a power of two) slots. */
    void resize(std::size_t size);

    /** Store a new key in its first free slot (no growth check). */
    void place(std::uint64_t key, std::uint64_t n);

    static constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

    std::vector<Slot> slots_; // power-of-two size, load <= 1/2
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t distinct_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Exact stats over `samples` (taken by value; may be reordered). NaN
 * samples are dropped first; an empty (or all-NaN) set yields count 0
 * with every statistic NaN. The mean accumulates in the samples' input
 * order.
 */
LatencyStats computeLatencyStats(std::vector<double> samples);

/**
 * computeLatencyStats over a caller-owned scratch buffer: identical
 * statistics (bit for bit), but the samples may be reordered in place
 * instead of being copied into a fresh vector. For callers that slice
 * many small sample runs out of one arena -- the fleet's per-tenant
 * stats -- this removes an allocation per call.
 */
LatencyStats computeLatencyStatsScratch(double *samples,
                                        std::size_t count);

} // namespace diva

#endif // DIVA_COMMON_PERCENTILE_H
