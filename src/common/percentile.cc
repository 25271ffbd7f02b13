#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Below this, a comparison sort beats the radix passes' setup. */
constexpr std::size_t kRadixMin = 4096;

/**
 * LSD radix sort, ascending, for strictly positive NaN-free doubles.
 * Positive IEEE-754 doubles order the same as their raw bit patterns,
 * so eight byte-wide counting passes reproduce std::sort's order
 * exactly (equal doubles are bit-identical, so stability questions
 * cannot surface in the output).  All eight histograms come out of one
 * fused widening pass (16 KB of counters, L1-resident), which also
 * verifies the positivity precondition: on the first sample that is
 * not > 0 (NaN compares false) the function bails out with `v`
 * untouched and returns false so the caller can comparison-sort.
 * Scatter passes whose byte is constant across the whole array --
 * most of them, for latency samples that share an exponent range --
 * are skipped.  The passes ping-pong between `v` itself and one
 * scratch array, so the sort needs n extra doubles, not 2n.  The
 * fleet's aggregate latency sort is O(n log n) worth avoiding: n is
 * the total step count.
 */
bool
radixSortPositive(std::vector<double> &v)
{
    const std::size_t n = v.size();
    auto bitsOf = [](double x) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        return bits;
    };
    std::size_t count[8][256] = {};
    for (const double x : v) {
        if (!(x > 0.0))
            return false;
        const std::uint64_t bits = bitsOf(x);
        for (int pass = 0; pass < 8; ++pass)
            ++count[pass][(bits >> (pass * 8)) & 255];
    }
    // Uninitialized: every slot is written before it is read.
    const std::unique_ptr<double[]> scratch =
        std::make_unique_for_overwrite<double[]>(n);
    double *a = v.data();
    double *b = scratch.get();
    for (int pass = 0; pass < 8; ++pass) {
        const int shift = pass * 8;
        std::size_t *c = count[pass];
        if (c[(bitsOf(a[0]) >> shift) & 255] == n)
            continue; // constant byte: the pass is a no-op
        std::size_t offset = 0;
        for (std::size_t slot = 0; slot < 256; ++slot) {
            const std::size_t here = c[slot];
            c[slot] = offset;
            offset += here;
        }
        for (std::size_t i = 0; i < n; ++i)
            b[c[(bitsOf(a[i]) >> shift) & 255]++] = a[i];
        std::swap(a, b);
    }
    if (a != v.data())
        std::copy(a, a + n, v.data());
    return true;
}

/**
 * Distinct-value census of a strictly positive sample set spread over
 * one or more buffers, read in place.  Fleet latency samples repeat
 * heavily -- a replay's millions of steps share a few thousand
 * distinct queueing delays -- so order statistics over (value, count)
 * pairs beat both a full sort and per-rank selection.  The census
 * keeps the same precondition as radixSortPositive (every sample >
 * 0.0): positive doubles order by their raw bits and carry one bit
 * pattern per value, so "distinct bits" and "distinct value" coincide
 * and the derived statistics are bit-identical to sorting the
 * concatenated array.  NaN samples are skipped, exactly as the
 * statistics drop them.  Gives up (returning false, with `bits`/`cnt`
 * unspecified) on the first non-positive sample or when the distinct
 * count passes kMaxDistinct, where the plain sort path is the better
 * tool anyway.
 */
constexpr std::size_t kMaxDistinct = std::size_t(1) << 13;

bool
censusPositive(std::span<const std::span<const double>> buffers,
               std::vector<std::uint64_t> &bits,
               std::vector<std::size_t> &cnt)
{
    constexpr std::size_t kSlots = kMaxDistinct * 4; // load <= 0.25
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
    struct Slot
    {
        std::uint64_t bits;
        std::size_t cnt; // 0 marks an empty slot
    };
    std::unique_ptr<Slot[]> table(new Slot[kSlots]());
    std::size_t distinct = 0;
    for (const std::span<const double> buf : buffers)
        for (const double v : buf) {
            if (!(v > 0.0)) {
                if (std::isnan(v))
                    continue;
                return false;
            }
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof b);
            std::size_t at =
                std::size_t((b * kMul) >> 49) & (kSlots - 1);
            for (;;) {
                Slot &sl = table[at];
                if (sl.cnt == 0) {
                    if (distinct == kMaxDistinct)
                        return false;
                    ++distinct;
                    sl.bits = b;
                    sl.cnt = 1;
                    break;
                }
                if (sl.bits == b) {
                    ++sl.cnt;
                    break;
                }
                at = (at + 1) & (kSlots - 1);
            }
        }
    bits.clear();
    cnt.clear();
    bits.reserve(distinct);
    cnt.reserve(distinct);
    for (std::size_t at = 0; at < kSlots; ++at)
        if (table[at].cnt != 0) {
            bits.push_back(table[at].bits);
            cnt.push_back(table[at].cnt);
        }
    // Ascending bit order is ascending value order for positives; the
    // counts vector is permuted in lockstep via an index sort.
    std::vector<std::uint32_t> order(bits.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b2) {
                  return bits[a] < bits[b2];
              });
    std::vector<std::uint64_t> sb(bits.size());
    std::vector<std::size_t> sc(cnt.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        sb[i] = bits[order[i]];
        sc[i] = cnt[order[i]];
    }
    bits.swap(sb);
    cnt.swap(sc);
    return true;
}

/** The double whose raw bits are `b`. */
double
bitsToDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

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

/**
 * p50/p95/p99 and max of `n` samples from their census (ascending
 * distinct values and their counts): rank lookups over the cumulative
 * counts index the same elements a sort would.
 */
void
censusRanks(const std::vector<std::uint64_t> &bits,
            const std::vector<std::size_t> &cnt, std::size_t n,
            LatencyStats &out)
{
    const std::size_t ranks[3] = {nearestRank(50.0, n),
                                  nearestRank(95.0, n),
                                  nearestRank(99.0, n)};
    double vals[3] = {0.0, 0.0, 0.0};
    std::size_t cum = 0, r = 0;
    for (std::size_t i = 0; i < bits.size() && r < 3; ++i) {
        cum += cnt[i];
        while (r < 3 && ranks[r] <= cum)
            vals[r++] = bitsToDouble(bits[i]);
    }
    out.p50Sec = vals[0];
    out.p95Sec = vals[1];
    out.p99Sec = vals[2];
    out.maxSec = bitsToDouble(bits.back());
}

/** Drop NaNs in place; the survivors keep their relative order. */
void
dropNaNs(std::vector<double> &samples)
{
    samples.erase(std::remove_if(samples.begin(), samples.end(),
                                 [](double v) { return std::isnan(v); }),
                  samples.end());
}

/**
 * Shared tail of computeLatencyStats: statistics over a NaN-free
 * buffer of n samples, reordering the buffer as a side effect.
 */
LatencyStats
statsOverBuffer(double *s, std::size_t n)
{
    LatencyStats out;
    if (n == 0) {
        out.meanSec = out.p50Sec = out.p95Sec = out.p99Sec = out.maxSec =
            kNaN;
        return out;
    }
    out.count = n;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += s[i];
    out.meanSec = sum / double(n);

    // Small sets (the per-tenant fleet stats: one run per session)
    // take one tiny full sort instead of three selection passes; the
    // ranked values are the same elements either way.  Most steady
    // tenants see one constant step latency, and a constant set makes
    // every pick that value -- detected with one scan, no sort.  (Not
    // for zeros: +0.0 == -0.0 with distinct bytes, so those keep the
    // sort path that arbitrates which pattern each rank yields.)
    if (n <= 32) {
        bool all_eq = s[0] != 0.0;
        for (std::size_t i = 1; all_eq && i < n; ++i)
            all_eq = s[i] == s[0];
        if (all_eq) {
            out.maxSec = out.p50Sec = out.p95Sec = out.p99Sec = s[0];
            return out;
        }
        std::sort(s, s + n);
        out.maxSec = s[n - 1];
        out.p50Sec = s[nearestRank(50.0, n) - 1];
        out.p95Sec = s[nearestRank(95.0, n) - 1];
        out.p99Sec = s[nearestRank(99.0, n) - 1];
        return out;
    }

    // Large positive sets: rank lookups over the distinct-value census
    // replace the selection passes (same elements, same bytes).  Below
    // kRadixMin the census table's setup dwarfs the selections it
    // saves.
    if (n >= kRadixMin) {
        std::vector<std::uint64_t> bits;
        std::vector<std::size_t> cnt;
        const std::span<const double> all(s, n);
        if (censusPositive({&all, 1}, bits, cnt)) {
            censusRanks(bits, cnt, n, out);
            return out;
        }
    }
    out.maxSec = *std::max_element(s, s + n);

    // One O(n) selection per rank instead of an O(n log n) full sort.
    // Each nth_element leaves [first, nth) <= *nth <= (nth, last), so
    // selecting the (non-decreasing) ranks in order lets every later
    // selection start past the previous rank. The selected values are
    // the same elements a full sort would index: bit-identical
    // nearest-rank percentiles, cheaper tails.
    const double ps[3] = {50.0, 95.0, 99.0};
    double vals[3];
    std::size_t prev = 0; // s[0 .. prev) already partitioned off
    std::size_t prev_rank = 0;
    for (int i = 0; i < 3; ++i) {
        const std::size_t rank = nearestRank(ps[i], n);
        if (i > 0 && rank == prev_rank) {
            vals[i] = vals[i - 1];
            continue;
        }
        std::nth_element(s + prev, s + (rank - 1), s + n);
        vals[i] = s[rank - 1];
        prev = rank;
        prev_rank = rank;
    }
    out.p50Sec = vals[0];
    out.p95Sec = vals[1];
    out.p99Sec = vals[2];
    return out;
}

} // namespace

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
    dropNaNs(samples);
    return statsOverBuffer(samples.data(), samples.size());
}

LatencyStats
computeLatencyStatsScratch(double *samples, std::size_t count)
{
    double *last = std::remove_if(
        samples, samples + count,
        [](double v) { return std::isnan(v); });
    return statsOverBuffer(samples, std::size_t(last - samples));
}

LatencyStats
computeLatencyStatsSortedMean(
    const std::vector<std::span<const double>> &buffers)
{
    std::size_t total = 0;
    for (const std::span<const double> buf : buffers)
        total += buf.size();

    // First choice for big sample sets: the distinct-value census, run
    // across the buffers in place.  Summing each value `count` times
    // in ascending value order replays the exact addition sequence of
    // summing the sorted array, and the rank lookups index the same
    // elements a sort would -- identical bytes, no copy, no scatter
    // passes.  (The census is exact, so gating it on the raw sample
    // count rather than the NaN-free one changes speed, never bytes.)
    if (total >= kRadixMin) {
        std::vector<std::uint64_t> bits;
        std::vector<std::size_t> cnt;
        if (censusPositive(buffers, bits, cnt) && !bits.empty()) {
            std::size_t n = 0;
            double sum = 0.0;
            for (std::size_t i = 0; i < bits.size(); ++i) {
                const double v = bitsToDouble(bits[i]);
                n += cnt[i];
                for (std::size_t k = 0; k < cnt[i]; ++k)
                    sum += v;
            }
            LatencyStats out;
            out.count = n;
            out.meanSec = sum / double(n);
            censusRanks(bits, cnt, n, out);
            return out;
        }
    }

    // The census gave up (a non-positive sample, or too many distinct
    // values -- neither goes away with the NaNs) or the set is small:
    // concatenate and sort.  The radix path requires strictly positive
    // samples: with zeros of both signs in play, a comparison sort's
    // placement among "equal" elements would be observable.  Real
    // latencies are positive; any other input makes radixSortPositive
    // bail and takes the comparison sort.
    std::vector<double> samples;
    samples.reserve(total);
    for (const std::span<const double> buf : buffers)
        samples.insert(samples.end(), buf.begin(), buf.end());
    dropNaNs(samples);
    LatencyStats out;
    if (samples.empty()) {
        out.meanSec = out.p50Sec = out.p95Sec = out.p99Sec = out.maxSec =
            kNaN;
        return out;
    }
    const std::size_t n = samples.size();
    out.count = n;
    if (n < kRadixMin || !radixSortPositive(samples))
        std::sort(samples.begin(), samples.end());
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    out.meanSec = sum / double(n);
    out.p50Sec = percentileSorted(samples, 50.0);
    out.p95Sec = percentileSorted(samples, 95.0);
    out.p99Sec = percentileSorted(samples, 99.0);
    out.maxSec = samples.back();
    return out;
}

} // namespace diva
