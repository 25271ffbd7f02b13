/**
 * @file
 * Tests of the exact percentile helpers backing the tail-latency
 * reports: empty and single-sample sets, all-identical samples, NaN
 * exclusion, the nearest-rank definition on sets where interpolation
 * would invent values that never occurred, and the LatencyCensus path
 * bit for bit against a plain sort (many distinct values, +0.0, NaNs,
 * the small-set cutoff), and merged ascending runs in any order.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/percentile.h"

namespace diva
{
namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Every field of two stats, compared bit for bit (NaN == NaN). */
void
expectBitEqual(const LatencyStats &a, const LatencyStats &b)
{
    auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(bits(a.meanSec), bits(b.meanSec));
    EXPECT_EQ(bits(a.p50Sec), bits(b.p50Sec));
    EXPECT_EQ(bits(a.p95Sec), bits(b.p95Sec));
    EXPECT_EQ(bits(a.p99Sec), bits(b.p99Sec));
    EXPECT_EQ(bits(a.maxSec), bits(b.maxSec));
}

/**
 * The definition: NaNs dropped, a full sort, nearest-rank picks, and
 * the mean summed in input order -- or, with `sortedMean`, in
 * ascending order (the aggregate rows' sum).
 */
LatencyStats
sortReference(const std::vector<double> &samples, bool sortedMean)
{
    std::vector<double> kept;
    for (const double v : samples)
        if (!std::isnan(v))
            kept.push_back(v);
    std::vector<double> sorted = kept;
    std::sort(sorted.begin(), sorted.end());
    LatencyStats ref;
    ref.count = sorted.size();
    ref.meanSec = ref.p50Sec = ref.p95Sec = ref.p99Sec = ref.maxSec = kNaN;
    if (sorted.empty())
        return ref;
    double sum = 0.0;
    for (const double v : sortedMean ? sorted : kept)
        sum += v;
    ref.meanSec = sum / double(sorted.size());
    ref.p50Sec = percentileSorted(sorted, 50.0);
    ref.p95Sec = percentileSorted(sorted, 95.0);
    ref.p99Sec = percentileSorted(sorted, 99.0);
    ref.maxSec = sorted.back();
    return ref;
}

/** Census stats over every buffer's samples, as the aggregate rows
 *  take them (mean summed in ascending order). */
LatencyStats
censusStats(const std::vector<std::span<const double>> &buffers)
{
    LatencyCensus census;
    for (const std::span<const double> buf : buffers)
        for (const double v : buf)
            census.add(v);
    return census.stats();
}

TEST(Percentile, EmptySetYieldsNaNStatsAndZeroCount)
{
    const LatencyStats s = computeLatencyStats({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_TRUE(std::isnan(s.meanSec));
    EXPECT_TRUE(std::isnan(s.p50Sec));
    EXPECT_TRUE(std::isnan(s.p95Sec));
    EXPECT_TRUE(std::isnan(s.p99Sec));
    EXPECT_TRUE(std::isnan(s.maxSec));
    EXPECT_TRUE(std::isnan(percentileSorted({}, 50.0)));
}

TEST(Percentile, SingleSampleIsEveryPercentile)
{
    const LatencyStats s = computeLatencyStats({0.25});
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.meanSec, 0.25);
    EXPECT_DOUBLE_EQ(s.p50Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.p95Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.p99Sec, 0.25);
    EXPECT_DOUBLE_EQ(s.maxSec, 0.25);
}

TEST(Percentile, AllIdenticalSamplesCollapse)
{
    const LatencyStats s =
        computeLatencyStats(std::vector<double>(1000, 3.5));
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.meanSec, 3.5);
    EXPECT_DOUBLE_EQ(s.p50Sec, 3.5);
    EXPECT_DOUBLE_EQ(s.p99Sec, 3.5);
    EXPECT_DOUBLE_EQ(s.maxSec, 3.5);
}

TEST(Percentile, NaNSamplesAreExcludedNotPropagated)
{
    const LatencyStats s =
        computeLatencyStats({kNaN, 1.0, kNaN, 3.0, kNaN});
    EXPECT_EQ(s.count, 2u) << "only the finite samples count";
    EXPECT_DOUBLE_EQ(s.meanSec, 2.0);
    EXPECT_DOUBLE_EQ(s.p50Sec, 1.0);
    EXPECT_DOUBLE_EQ(s.maxSec, 3.0);

    // An all-NaN set behaves like an empty one.
    const LatencyStats none = computeLatencyStats({kNaN, kNaN});
    EXPECT_EQ(none.count, 0u);
    EXPECT_TRUE(std::isnan(none.p99Sec));
}

TEST(Percentile, NearestRankNeverInterpolates)
{
    // 1..100: pK is exactly the Kth value, and every percentile is a
    // sample that actually occurred.
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(double(i));
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.0), 1.0);

    // Two samples: the median is the lower one (rank ceil(1) = 1),
    // not the midpoint.
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 50.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 51.0), 9.0);

    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 9.0}, 250.0), 9.0);
}

TEST(Percentile, StatsMatchSortReferenceBitIdentically)
{
    // computeLatencyStats (a small sort up to 32 samples, the census
    // above) must pick exactly the elements a full sort would index:
    // cross-check count, every percentile and the max against a
    // sort-based reference over deterministic pseudo-random sample
    // sets of awkward sizes (including rank collisions at n < 20, both
    // sides of the small-set cutoff and duplicate-heavy sets).
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return double(lcg >> 16) / double(1ULL << 48);
    };
    for (std::size_t n :
         {1u, 2u, 3u, 7u, 19u, 20u, 21u, 32u, 33u, 99u, 100u, 101u, 1000u,
          4096u}) {
        std::vector<double> samples;
        samples.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double v = next();
            // Quantize every third sample to force duplicates.
            samples.push_back(i % 3 == 0 ? std::floor(v * 8.0) / 8.0
                                         : v);
        }

        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const LatencyStats s = computeLatencyStats(samples);
        EXPECT_EQ(s.count, n);
        EXPECT_EQ(s.p50Sec, percentileSorted(sorted, 50.0)) << "n=" << n;
        EXPECT_EQ(s.p95Sec, percentileSorted(sorted, 95.0)) << "n=" << n;
        EXPECT_EQ(s.p99Sec, percentileSorted(sorted, 99.0)) << "n=" << n;
        EXPECT_EQ(s.maxSec, sorted.back()) << "n=" << n;

        // The census's sorted-order stats must agree bit for
        // bit, and its mean must equal an ascending-order
        // accumulation exactly.
        const LatencyStats agg = censusStats({samples});
        EXPECT_EQ(agg.p50Sec, s.p50Sec);
        EXPECT_EQ(agg.p95Sec, s.p95Sec);
        EXPECT_EQ(agg.p99Sec, s.p99Sec);
        EXPECT_EQ(agg.maxSec, s.maxSec);
        double sum = 0.0;
        for (double v : sorted)
            sum += v;
        EXPECT_EQ(agg.meanSec, sum / double(n)) << "n=" << n;
    }
}

TEST(Percentile, CensusPathMatchesSortReferenceBitIdentically)
{
    // Sets above the small-set cutoff take the census: rank lookups
    // over per-value counts. Its stats must match the sort reference
    // bit for bit, and its sorted-order mean must equal an
    // ascending-order accumulation exactly -- the census replays that
    // exact addition sequence per distinct value.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (std::size_t n : {4096u, 5000u, 20000u}) {
        // A pool of ~64 distinct positive values, wildly duplicated --
        // the shape fleet latency aggregation actually sees.
        std::vector<double> pool;
        for (int i = 0; i < 64; ++i)
            pool.push_back(0.001 + double(next() % 10000) / 1000.0);
        std::vector<double> samples;
        samples.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            samples.push_back(pool[next() % pool.size()]);

        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const LatencyStats s = computeLatencyStats(samples);
        EXPECT_EQ(s.count, n);
        EXPECT_EQ(s.p50Sec, percentileSorted(sorted, 50.0)) << "n=" << n;
        EXPECT_EQ(s.p95Sec, percentileSorted(sorted, 95.0)) << "n=" << n;
        EXPECT_EQ(s.p99Sec, percentileSorted(sorted, 99.0)) << "n=" << n;
        EXPECT_EQ(s.maxSec, sorted.back()) << "n=" << n;

        const LatencyStats agg = censusStats({samples});
        EXPECT_EQ(agg.p50Sec, s.p50Sec);
        EXPECT_EQ(agg.p95Sec, s.p95Sec);
        EXPECT_EQ(agg.p99Sec, s.p99Sec);
        EXPECT_EQ(agg.maxSec, s.maxSec);
        double sum = 0.0;
        for (double v : sorted)
            sum += v;
        EXPECT_EQ(agg.meanSec, sum / double(n)) << "n=" << n;
    }

    // Seeded sets the census must take without any fallback, each
    // checked bit for bit (count, both means, p50/p95/p99, max) against
    // the sort reference: more than 8192 distinct values, +0.0
    // samples, NaNs, and sizes on both sides of the small-set cutoff.
    auto checkBoth = [](const std::vector<double> &samples) {
        expectBitEqual(computeLatencyStats(samples),
                       sortReference(samples, false));
        expectBitEqual(censusStats({samples}),
                       sortReference(samples, true));
    };
    for (std::size_t n : {1u, 32u, 33u, 4096u, 50000u}) {
        std::vector<double> wide(n); // ~n distinct values
        for (double &v : wide)
            v = 1e-4 + double(next() % 100000000) / 1e7;
        checkBoth(wide);

        std::vector<double> zeros = wide;
        for (std::size_t i = 0; i < n; i += 7)
            zeros[i] = 0.0;
        checkBoth(zeros);

        std::vector<double> nans = zeros;
        for (std::size_t i = 3; i < n; i += 11)
            nans[i] = kNaN;
        checkBoth(nans);

        // Not latencies, but the census orders every non-NaN double.
        std::vector<double> signs = nans;
        for (std::size_t i = 0; i < n; i += 5)
            signs[i] = -signs[i];
        checkBoth(signs);
    }
    std::vector<double> allZero(40, 0.0);
    checkBoth(allZero);
}

TEST(Percentile, MultiBufferMatchesConcatenationBitForBit)
{
    // Buffers are read in place; the result must be bit-equal to one
    // call on their concatenation and to a plain sort, for few or many
    // distinct values, signed zeros, NaNs and small sets.
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    auto check = [](const std::vector<std::vector<double>> &parts) {
        std::vector<double> concat;
        std::vector<std::span<const double>> spans;
        for (const std::vector<double> &p : parts) {
            concat.insert(concat.end(), p.begin(), p.end());
            spans.emplace_back(p);
        }
        const std::vector<double> before = concat;
        const LatencyStats multi = censusStats(spans);
        expectBitEqual(multi, censusStats({concat}));

        expectBitEqual(multi, sortReference(concat, true));
        std::size_t at = 0;
        for (const std::vector<double> &p : parts) {
            if (!p.empty()) {
                EXPECT_EQ(std::memcmp(p.data(), before.data() + at,
                                      p.size() * sizeof(double)),
                          0)
                    << "buffers must be read, not reordered";
            }
            at += p.size();
        }
    };

    // Pools: few distinct values, many spread over several binades
    // and many within one binade.
    for (int kind = 0; kind < 3; ++kind) {
        std::vector<double> pool;
        for (std::size_t i = 0; i < (kind == 0 ? 64u : 20000u); ++i)
            pool.push_back(kind == 2
                               ? 1.0 + double(next() % 100000) * 0x1p-20
                               : 0.001 + double(next() % 100000000) / 1e6);
        std::vector<std::vector<double>> parts(7);
        for (std::size_t b = 0; b < parts.size(); ++b) {
            // Uneven sizes, one empty buffer.
            const std::size_t len = b == 3 ? 0 : 600 + 900 * b;
            for (std::size_t i = 0; i < len; ++i)
                parts[b].push_back(pool[next() % pool.size()]);
        }
        check(parts);

        parts[5][17] = kNaN;
        parts[0][0] = kNaN;
        check(parts); // NaNs are skipped, not a give-up

        std::vector<std::vector<double>> withZero = parts;
        withZero[2][5] = 0.0;
        withZero[6][9] = -0.0;
        check(withZero); // -0.0 keys sort just below +0.0

        check({parts[1], {}, parts[2]});
        check({{parts[1].begin(), parts[1].begin() + 20},
               {parts[2].begin(), parts[2].begin() + 13}});
    }
    check({});
    check({{kNaN, kNaN}, {}});
    check({std::vector<double>(5000, kNaN)});
}

/** The run of `samples` as a census lists it. */
LatencyRun
runOf(const std::vector<double> &samples)
{
    LatencyCensus census;
    for (const double v : samples)
        census.add(v);
    return census.ascending();
}

/** rankStats over the merge of every shard's run, in `order`. */
LatencyRun
mergedRun(const std::vector<LatencyRun> &runs,
          const std::vector<std::size_t> &order)
{
    std::vector<LatencyRun> ordered;
    for (const std::size_t k : order)
        ordered.push_back(runs[k]);
    return mergeAscendingRuns(std::move(ordered));
}

TEST(Percentile, RunMergeIsOrderIndependentAndMatchesSortReference)
{
    // The fleet reads each pod's census as an ascending run for its
    // row and merges the pods' runs for the fleet-wide row. Shards
    // (pods): a hot one with > 100k distinct values, 63 small ones,
    // empty ones, +0.0 and -0.0 in different shards, and NaNs.
    std::uint64_t lcg = 0x51f15eedULL;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    std::vector<std::vector<double>> shards(64);
    for (std::size_t i = 0; i < 400000; ++i)
        shards[0].push_back(0.002 + double(next() % 50000000) / 1e7);
    for (std::size_t k = 1; k < shards.size(); ++k) {
        const std::size_t len = k % 9 == 0 ? 0 : next() % 40;
        for (std::size_t i = 0; i < len; ++i)
            shards[k].push_back(0.002 + double(next() % 50000000) / 1e7);
    }
    shards[0][100] = 0.0;
    shards[5].push_back(-0.0);
    shards[7].push_back(0.0);
    shards[11].push_back(kNaN);

    std::vector<LatencyRun> runs;
    std::vector<double> all;
    for (const std::vector<double> &shard : shards) {
        runs.push_back(runOf(shard));
        // A pod's row: rankStats of its own run, ascending-order mean.
        expectBitEqual(rankStats(runs.back()), sortReference(shard, true));
        all.insert(all.end(), shard.begin(), shard.end());
    }
    ASSERT_GT(runs[0].size(), 100000u);

    const LatencyStats want = sortReference(all, true);
    const LatencyRun wantRun = runOf(all);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        order[k] = k;
    for (int round = 0; round < 6; ++round) {
        const LatencyRun merged = mergedRun(runs, order);
        EXPECT_EQ(merged, wantRun) << "round " << round;
        expectBitEqual(rankStats(merged), want);
        // Forward, reversed, then seeded shuffles.
        if (round == 0) {
            std::reverse(order.begin(), order.end());
        } else {
            for (std::size_t k = order.size() - 1; k > 0; --k)
                std::swap(order[k], order[next() % (k + 1)]);
        }
    }
    // -0.0 and +0.0 stay two keys, -0.0 first, with summed counts.
    const LatencyRun merged = mergedRun(runs, order);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(merged[0].first),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_EQ(merged[0].second, 1u);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(merged[1].first),
              std::bit_cast<std::uint64_t>(0.0));
    EXPECT_EQ(merged[1].second, 2u);

    // Every order of a few small runs, with empties among them.
    const std::vector<std::size_t> few = {1, 5, 7, 9, 18};
    std::vector<double> fewAll;
    for (const std::size_t k : few)
        fewAll.insert(fewAll.end(), shards[k].begin(), shards[k].end());
    const LatencyRun fewRun = runOf(fewAll);
    std::vector<std::size_t> perm = few;
    do {
        EXPECT_EQ(mergedRun(runs, perm), fewRun);
    } while (std::next_permutation(perm.begin(), perm.end()));

    // No runs, and only empty runs, merge to the empty run.
    EXPECT_TRUE(mergeAscendingRuns({}).empty());
    EXPECT_TRUE(mergeAscendingRuns({{}, {}}).empty());
    expectBitEqual(rankStats({}), sortReference({}, true));

    // ascending() lists each distinct value once, with its count.
    LatencyCensus repeats;
    for (int i = 0; i < 100; ++i)
        repeats.add(i % 3 == 0 ? 1.5 : 2.5);
    EXPECT_EQ(repeats.ascending(), (LatencyRun{{1.5, 34}, {2.5, 66}}));
}

TEST(Percentile, StatsAreOrderedAndSorted)
{
    // Unsorted input with a heavy tail: p50 <= p95 <= p99 <= max.
    const LatencyStats s = computeLatencyStats(
        {0.9, 0.1, 5.0, 0.2, 0.3, 0.15, 0.25, 0.35, 0.12, 0.18});
    EXPECT_EQ(s.count, 10u);
    EXPECT_LE(s.p50Sec, s.p95Sec);
    EXPECT_LE(s.p95Sec, s.p99Sec);
    EXPECT_LE(s.p99Sec, s.maxSec);
    EXPECT_DOUBLE_EQ(s.maxSec, 5.0);
    EXPECT_DOUBLE_EQ(s.p99Sec, 5.0) << "nearest rank on 10 samples";
}

} // namespace
} // namespace diva
