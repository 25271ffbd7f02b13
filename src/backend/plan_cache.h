/**
 * @file
 * Shared workload-plan cache: memoizes the two deterministic, pure
 * lowering steps every simulation backend repeats -- buildModel()
 * (zoo name + input scale -> Network) and buildOpStream() /
 * buildMicrobatchedOpStream() (network + algorithm + resolved batch +
 * micro-batch -> one training iteration's op stream).
 *
 * A design-space sweep crosses many accelerator design points with few
 * workloads, so without memoization each sweep cell rebuilds the same
 * Network and OpStream hundreds of times. The cache is shared by all
 * backends (chip, pod and GPU scenarios over one workload share the
 * same monolithic stream entry) and is safe to use from the sweep
 * runner's worker pool.
 *
 * Keys are the exact cell text of the inputs (common/format.h's CSV
 * cell grammar, as in Scenario::key()), so two inputs share a plan
 * only when they are equal.
 *
 * Concurrency: one mutex guards both tables and the counters. A sweep
 * makes tens of thousands of lookups per second, and the runner hands
 * each workload group to one lane, so the lock is rarely contended.
 * Plans are built *outside* the lock, so builds on different lanes
 * overlap; two workers missing the same key concurrently both build,
 * and the first to insert wins (the loser adopts the winner's plan and
 * counts a hit). That rule makes the hit/miss counters a pure function
 * of the lookups -- misses == distinct keys built, hits == lookups -
 * misses -- so totals stay byte-identical across thread counts.
 */

#ifndef DIVA_BACKEND_PLAN_CACHE_H
#define DIVA_BACKEND_PLAN_CACHE_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "models/network.h"
#include "train/algorithm.h"
#include "train/op.h"

namespace diva
{

/** Thread-safe memoizer for buildModel+buildOpStream. */
class PlanCache
{
  public:
    /** Cumulative lookup accounting since construction. */
    struct Stats
    {
        std::size_t networkHits = 0;
        std::size_t networkMisses = 0;
        std::size_t streamHits = 0;
        std::size_t streamMisses = 0;

        std::size_t hits() const { return networkHits + streamHits; }
        std::size_t misses() const
        {
            return networkMisses + streamMisses;
        }
    };

    /**
     * The zoo model `model` at input scale `scale` (0 = paper
     * default), built at most once per (model, scale). Throws like
     * buildModel() for unknown names; failures are never cached.
     */
    std::shared_ptr<const Network> network(const std::string &model,
                                           int scale);

    /**
     * The op stream of one training iteration of `net` -- monolithic
     * when `microbatch` == 0, gradient-accumulating otherwise -- built
     * at most once per (model, scale, algorithm, batch, microbatch).
     * `net` must be the (model, scale) network; it is only consulted
     * on a miss.
     */
    std::shared_ptr<const OpStream> stream(const Network &net,
                                           const std::string &model,
                                           int scale,
                                           TrainingAlgorithm algo,
                                           int batch, int microbatch);

    Stats stats() const;

  private:
    /** One kind of plan: its entries, counters and metric names. */
    template <typename T>
    struct Table
    {
        Table(const char *hit, const char *miss)
            : hitMetric(hit), missMetric(miss)
        {
        }

        const std::string hitMetric;
        const std::string missMetric;
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::unordered_map<std::string, std::shared_ptr<const T>> plans;
    };

    /** The plan under `key`, built by `build()` on a miss. */
    template <typename T, typename Build>
    std::shared_ptr<const T> lookup(Table<T> &table, std::string key,
                                    const Build &build);

    mutable std::mutex mutex_; ///< guards both tables
    Table<Network> networks_{"plan_cache.network_hits",
                             "plan_cache.network_misses"};
    Table<OpStream> streams_{"plan_cache.stream_hits",
                             "plan_cache.stream_misses"};
};

} // namespace diva

#endif // DIVA_BACKEND_PLAN_CACHE_H
