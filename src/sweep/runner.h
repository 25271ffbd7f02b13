/**
 * @file
 * Parallel sweep execution with a result cache keyed on
 * Scenario::key(), the exact text of a scenario's simulation inputs.
 *
 * The runner simulates each *unique* scenario exactly once on a
 * fixed-size worker pool and assembles results in scenario order, so
 * the report is bit-identical whatever the thread count. Scenarios
 * whose key was already simulated -- duplicates within one
 * run, repeats across run() calls on the same runner, or (with
 * SweepOptions::cacheDir) results persisted by earlier processes --
 * are served from the cache and flagged as hits. Failed results are
 * never cached beyond the run that produced them.
 *
 * Scenario evaluation is delegated to the backend layer
 * (src/backend/): runScenario() calls evaluate(), which switches on
 * the scenario's SweepBackend, and a shared thread-safe PlanCache
 * memoizes workload lowering (buildModel + buildOpStream) so a sweep
 * crossing many design points with few workloads builds each workload
 * once, not once per cell. Jobs sharing the key's workload part run on
 * one worker, so each plan is built once and by one thread.
 */

#ifndef DIVA_SWEEP_RUNNER_H
#define DIVA_SWEEP_RUNNER_H

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/plan_cache.h"
#include "sweep/disk_cache.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"

namespace diva
{

/** Sweep execution options. */
struct SweepOptions
{
    /** Worker threads; values < 1 are clamped to 1. */
    int threads = 1;

    /**
     * Keep results cached across run() calls on the same runner.
     * Within a single run() duplicates are always simulated once.
     * Failed results are never kept across runs: a transient failure
     * is retried, not replayed.
     */
    bool cacheAcrossRuns = true;

    /**
     * When non-empty, persist results in a DiskCache under this
     * directory: previously stored scenarios are served without
     * simulation (counted as cache hits) and fresh successful results
     * are appended after every run(). See DiskCache::defaultDir().
     */
    std::string cacheDir;

    /**
     * Invoked after each completed simulation with (done, total,
     * scenario). Called from worker threads under a lock; completion
     * order is nondeterministic under parallel execution, so route
     * progress to a side channel (stderr), never into sweep output.
     */
    std::function<void(std::size_t, std::size_t, const Scenario &)>
        progress;
};

/** Outcome of one run() call. */
struct SweepReport
{
    /** One result per input scenario, in input order. */
    std::vector<ScenarioResult> results;

    /** Scenarios served from the cache (duplicates + cross-run hits). */
    std::size_t cacheHits = 0;

    /** Scenarios that required a fresh simulation. */
    std::size_t cacheMisses = 0;

    /** Results with a non-empty error. */
    std::size_t failures = 0;

    /**
     * Workload-plan cache accounting for this run: lookups served
     * from (hits) or added to (misses) the shared PlanCache. Both are
     * deterministic across thread counts.
     */
    std::size_t planHits = 0;
    std::size_t planMisses = 0;
};

/** Executes scenario lists / specs; owns the result and plan caches. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Expand `spec` and run every scenario. */
    SweepReport run(const SweepSpec &spec);

    /** Run an explicit scenario list. */
    SweepReport run(const std::vector<Scenario> &scenarios);

    /** Number of cached unique-scenario results (memory + disk). */
    std::size_t cacheSize() const
    {
        return cache_.size() + (disk_ ? disk_->size() : 0);
    }

    const SweepOptions &options() const { return opts_; }

    /** The persistent store, or nullptr when options().cacheDir empty. */
    const DiskCache *diskCache() const { return disk_.get(); }

    /** The workload-plan cache shared by every run() call. */
    const PlanCache &planCache() const { return plans_; }

  private:
    /** The cached result under `key`, or nullptr. */
    const ScenarioResult *cached(const std::string &key) const;

    SweepOptions opts_;
    PlanCache plans_;
    /**
     * Scenario::key() -> successful result, fresh simulations only
     * (failures are never kept). Cleared per run() when
     * !opts.cacheAcrossRuns. With a disk store, holds only the
     * results the store refused (keys its line format cannot carry,
     * or a failed write); the rest are served from disk_->entries().
     */
    std::unordered_map<std::string, ScenarioResult> cache_;
    /** Loaded once at construction; appended to after every run(). */
    std::unique_ptr<DiskCache> disk_;
};

/**
 * Simulate one scenario synchronously through evaluate(), memoizing
 * workload plans in `plans` (shared across calls); a thrown
 * simulation error becomes the result's `error`.
 */
ScenarioResult runScenario(const Scenario &scenario, PlanCache &plans);

/** Convenience overload with a private, single-use plan cache. */
ScenarioResult runScenario(const Scenario &scenario);

} // namespace diva

#endif // DIVA_SWEEP_RUNNER_H
