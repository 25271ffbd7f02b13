#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Up to this many samples, one small sort beats building a census. */
constexpr std::size_t kSmallSet = 32;

/** Nearest rank for percentile p over n samples: 1-based, clamped. */
std::size_t
nearestRank(double p, std::size_t n)
{
    p = std::min(100.0, std::max(0.0, p));
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    return rank;
}

/** count 0, every statistic NaN: the stats of an empty set. */
LatencyStats
emptyStats()
{
    LatencyStats out;
    out.meanSec = out.p50Sec = out.p95Sec = out.p99Sec = out.maxSec = kNaN;
    return out;
}

/**
 * rankStats with the sum given: n samples described by an ascending
 * run, their sum taken in whatever order the caller summed them.
 */
LatencyStats
rankStatsWithSum(const LatencyRun &values, std::uint64_t n, double sum)
{
    if (n == 0)
        return emptyStats();
    LatencyStats out;
    out.count = n;
    out.meanSec = sum / double(n);
    const std::size_t ranks[3] = {nearestRank(50.0, n),
                                  nearestRank(95.0, n),
                                  nearestRank(99.0, n)};
    double picks[3] = {0.0, 0.0, 0.0};
    std::uint64_t cum = 0;
    std::size_t r = 0;
    for (std::size_t i = 0; i < values.size() && r < 3; ++i) {
        cum += values[i].second;
        while (r < 3 && ranks[r] <= cum)
            picks[r++] = values[i].first;
    }
    out.p50Sec = picks[0];
    out.p95Sec = picks[1];
    out.p99Sec = picks[2];
    out.maxSec = values.back().first;
    return out;
}

/** One ascending run from two: a merge by key, equal keys summed. */
LatencyRun
mergeTwo(const LatencyRun &a, const LatencyRun &b)
{
    LatencyRun out;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const std::uint64_t ka = orderKey(a[i].first);
        const std::uint64_t kb = orderKey(b[j].first);
        if (ka < kb) {
            out.push_back(a[i++]);
        } else if (kb < ka) {
            out.push_back(b[j++]);
        } else {
            out.emplace_back(a[i].first, a[i].second + b[j].second);
            ++i;
            ++j;
        }
    }
    out.insert(out.end(), a.begin() + std::ptrdiff_t(i), a.end());
    out.insert(out.end(), b.begin() + std::ptrdiff_t(j), b.end());
    return out;
}

/**
 * Stats over a NaN-free buffer of n samples, reordering it as a side
 * effect: a small set is sorted and indexed, a larger one is counted
 * into a census. The mean sums the buffer in its given order.
 */
LatencyStats
statsOverBuffer(double *s, std::size_t n)
{
    if (n == 0)
        return emptyStats();
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += s[i];
    if (n > kSmallSet) {
        LatencyCensus census;
        for (std::size_t i = 0; i < n; ++i)
            census.add(s[i]);
        return census.stats(sum);
    }
    std::sort(s, s + n);
    LatencyStats out;
    out.count = n;
    out.meanSec = sum / double(n);
    out.maxSec = s[n - 1];
    out.p50Sec = s[nearestRank(50.0, n) - 1];
    out.p95Sec = s[nearestRank(95.0, n) - 1];
    out.p99Sec = s[nearestRank(99.0, n) - 1];
    return out;
}

} // namespace

void
LatencyCensus::resize(std::size_t size)
{
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(size));
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
    for (const Slot &sl : old)
        if (sl.count != 0)
            place(sl.key, sl.count);
}

void
LatencyCensus::place(std::uint64_t key, std::uint64_t n)
{
    std::size_t at = home(key);
    while (slots_[at].count != 0)
        at = (at + 1) & mask_;
    slots_[at] = {key, n};
}

void
LatencyCensus::bump(std::uint64_t key)
{
    ++count_;
    if (!slots_.empty())
        for (std::size_t at = home(key); slots_[at].count != 0;
             at = (at + 1) & mask_)
            if (slots_[at].key == key) {
                ++slots_[at].count;
                return;
            }
    // A new value: keep the load at most 1/2 by doubling (or
    // allocating) the table first.
    if (2 * (distinct_ + 1) > slots_.size())
        resize(std::max<std::size_t>(16, 2 * slots_.size()));
    place(key, 1);
    ++distinct_;
}

LatencyRun
LatencyCensus::ascending() const
{
    std::vector<Slot> occupied;
    occupied.reserve(distinct_);
    for (const Slot &sl : slots_)
        if (sl.count != 0)
            occupied.push_back(sl);
    std::sort(occupied.begin(), occupied.end(),
              [](const Slot &a, const Slot &b) { return a.key < b.key; });
    LatencyRun out;
    out.reserve(occupied.size());
    for (const Slot &sl : occupied) {
        // Invert orderKey: keys with the top bit set were non-negative.
        const std::uint64_t bits =
            sl.key >> 63 ? sl.key & ~(std::uint64_t(1) << 63) : ~sl.key;
        out.emplace_back(std::bit_cast<double>(bits), sl.count);
    }
    return out;
}

LatencyStats
LatencyCensus::stats() const
{
    return rankStats(ascending());
}

LatencyStats
LatencyCensus::stats(double sum) const
{
    return rankStatsWithSum(ascending(), count_, sum);
}

LatencyStats
rankStats(const LatencyRun &ascending)
{
    // Adding each value `count` times in ascending value order replays
    // the exact addition sequence of summing the sorted array.
    std::uint64_t n = 0;
    double sum = 0.0;
    for (const auto &[v, c] : ascending) {
        n += c;
        for (std::uint64_t k = 0; k < c; ++k)
            sum += v;
    }
    return rankStatsWithSum(ascending, n, sum);
}

LatencyRun
mergeAscendingRuns(std::vector<LatencyRun> runs)
{
    if (runs.empty())
        return {};
    // Merge the two shortest runs until one is left, so a long run
    // (a hot pod's) is copied once at the end instead of once per
    // run merged into it. Merging is associative and commutative, so
    // the heap's tie order cannot change the result.
    const auto longer = [](const LatencyRun &a, const LatencyRun &b) {
        return a.size() > b.size();
    };
    std::make_heap(runs.begin(), runs.end(), longer);
    while (runs.size() > 1) {
        std::pop_heap(runs.begin(), runs.end(), longer);
        LatencyRun a = std::move(runs.back());
        runs.pop_back();
        std::pop_heap(runs.begin(), runs.end(), longer);
        runs.back() = mergeTwo(a, runs.back());
        std::push_heap(runs.begin(), runs.end(), longer);
    }
    return std::move(runs.front());
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return kNaN;
    return sorted[nearestRank(p, sorted.size()) - 1];
}

LatencyStats
computeLatencyStats(std::vector<double> samples)
{
    return computeLatencyStatsScratch(samples.data(), samples.size());
}

LatencyStats
computeLatencyStatsScratch(double *samples, std::size_t count)
{
    double *last = std::remove_if(
        samples, samples + count,
        [](double v) { return std::isnan(v); });
    return statsOverBuffer(samples, std::size_t(last - samples));
}

} // namespace diva
