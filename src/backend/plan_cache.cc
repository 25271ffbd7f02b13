#include "backend/plan_cache.h"

#include <utility>

#include "common/format.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sweep/scenario.h"
#include "train/planner.h"

namespace diva
{

template <typename T, typename Build>
std::shared_ptr<const T>
PlanCache::lookup(Table<T> &table, std::string key, const Build &build)
{
    auto &metrics = obs::MetricsRegistry::instance();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = table.plans.find(key);
            it != table.plans.end()) {
            ++table.hits;
            metrics.addCounter(table.hitMetric);
            return it->second;
        }
    }
    // Build outside the lock; a thrown error (unknown model) escapes
    // before anything is cached or counted.
    std::shared_ptr<const T> built;
    {
        obs::ScopedPhase phase("plan_build");
        built = std::make_shared<const T>(build());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        table.plans.emplace(std::move(key), std::move(built));
    // Losing a build race counts as a hit: exactly one miss per
    // distinct key, whatever the thread count.
    ++(inserted ? table.misses : table.hits);
    metrics.addCounter(inserted ? table.missMetric : table.hitMetric);
    return it->second;
}

std::shared_ptr<const Network>
PlanCache::network(const std::string &model, int scale)
{
    std::string key;
    appendCsvCell(key, model);
    appendCell(key, scale);
    return lookup(networks_, std::move(key),
                  [&] { return buildModel(model, scale); });
}

std::shared_ptr<const OpStream>
PlanCache::stream(const Network &net, const std::string &model,
                  int scale, TrainingAlgorithm algo, int batch,
                  int microbatch)
{
    std::string key;
    appendCsvCell(key, model);
    appendCells(key, scale, algorithmName(algo), batch, microbatch);
    return lookup(streams_, std::move(key), [&] {
        return microbatch > 0
                   ? buildMicrobatchedOpStream(net, algo, batch, microbatch)
                   : buildOpStream(net, algo, batch);
    });
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {networks_.hits, networks_.misses, streams_.hits,
            streams_.misses};
}

} // namespace diva
