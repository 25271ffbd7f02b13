#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string_view>

#include "backend/backend.h"
#include "common/task_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace diva
{

ScenarioResult
runScenario(const Scenario &scenario, PlanCache &plans)
{
    ScenarioResult out;
    out.scenario = scenario;
    try {
        evaluate(scenario, plans, out);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

ScenarioResult
runScenario(const Scenario &scenario)
{
    PlanCache plans;
    return runScenario(scenario, plans);
}

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.threads < 1)
        opts_.threads = 1;
    if (!opts_.cacheDir.empty())
        disk_ = std::make_unique<DiskCache>(opts_.cacheDir);
}

const ScenarioResult *
SweepRunner::cached(const std::string &key) const
{
    if (const auto it = cache_.find(key); it != cache_.end())
        return &it->second;
    if (!disk_)
        return nullptr;
    const auto &stored = disk_->entries();
    const auto it = stored.find(key);
    return it == stored.end() ? nullptr : &it->second;
}

SweepReport
SweepRunner::run(const SweepSpec &spec)
{
    return run(spec.expand().scenarios);
}

SweepReport
SweepRunner::run(const std::vector<Scenario> &scenarios)
{
    SweepReport report;
    report.results.resize(scenarios.size());

    // The disk store's entries always survive; only in-memory results
    // are forgotten between runs.
    if (!opts_.cacheAcrossRuns)
        cache_.clear();

    // Map each scenario to its key; the first scenario to claim an
    // uncached key becomes a simulation job, the rest are cache hits
    // resolved after the pool drains.
    //
    // Jobs are batched into groups on the key's workload part (job
    // slots per group, in first-appearance order), which decides the
    // execution plan (model build + op stream) a scenario needs. One
    // worker claims a whole group, so after the first member's
    // PlanCache miss every other member is an in-thread hit -- and two
    // workers never build the same plan concurrently. Each worker
    // still writes only its own jobs' slots, so results are
    // independent of scheduling; the per-scenario assembly below
    // imposes the deterministic order.
    std::vector<std::string> keys(scenarios.size());
    std::vector<std::size_t> jobs; // indices into `scenarios`
    std::unordered_map<std::string_view, std::size_t> claimed; // -> job
    std::vector<std::vector<std::size_t>> groups; // job slots
    std::unordered_map<std::string_view, std::size_t> group_of;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        std::size_t workload = 0;
        keys[i] = scenarios[i].key(&workload);
        if (cached(keys[i]) || claimed.count(keys[i])) {
            ++report.cacheHits;
            continue;
        }
        claimed.emplace(keys[i], jobs.size());
        const auto [it, fresh] = group_of.emplace(
            std::string_view(keys[i]).substr(0, workload), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(jobs.size());
        jobs.push_back(i);
        ++report.cacheMisses;
    }

    const PlanCache::Stats plans_before = plans_.stats();

    std::vector<ScenarioResult> job_results(jobs.size());
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    {
        obs::ScopedPhase phase("scenario_eval");
        // One persistent-pool lane claims a whole group (see the
        // grouping comment above); the shared TaskPool replaces the
        // per-run() thread spawn/join this loop used to pay.
        TaskPool::shared().parallelFor(
            groups.size(), opts_.threads, [&](std::size_t g) {
                for (const std::size_t j : groups[g]) {
                    job_results[j] =
                        runScenario(scenarios[jobs[j]], plans_);
                    const std::size_t finished = done.fetch_add(1) + 1;
                    if (opts_.progress) {
                        std::lock_guard<std::mutex> lock(progress_mutex);
                        opts_.progress(finished, jobs.size(),
                                       scenarios[jobs[j]]);
                    }
                }
            });
    }

    const PlanCache::Stats plans_after = plans_.stats();
    report.planHits = plans_after.hits() - plans_before.hits();
    report.planMisses = plans_after.misses() - plans_before.misses();

    // Only successful results enter the cross-run cache (and the disk
    // store): a cached failure would replay a possibly transient error
    // forever instead of retrying it. With a disk store, the store
    // keeps the one in-memory copy of each result it accepts; the
    // in-memory cache takes the rest. Either way each is copied once;
    // the report takes the claimant's own result below.
    std::vector<std::pair<std::string, ScenarioResult>> fresh_ok;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        if (job_results[j].ok())
            fresh_ok.emplace_back(keys[jobs[j]], job_results[j]);
    if (disk_)
        disk_->append(fresh_ok);
    for (auto &[key, result] : fresh_ok)
        if (!disk_ || !disk_->contains(key))
            cache_.emplace(std::move(key), std::move(result));

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        ScenarioResult &r = report.results[i];
        const auto claim = claimed.find(keys[i]);
        if (claim == claimed.end())
            r = *cached(keys[i]); // a hit from an earlier run
        else if (jobs[claim->second] == i)
            r = std::move(job_results[claim->second]);
        else // a duplicate of an earlier scenario of this run
            r = report.results[jobs[claim->second]];
        r.cacheHit = claim == claimed.end() || jobs[claim->second] != i;
        // A hit reports the requester's own scenario (labels may
        // differ even when the simulation inputs coincide); a
        // claimant's result carries its own already.
        if (r.cacheHit)
            r.scenario = scenarios[i];
        if (!r.ok())
            ++report.failures;
    }

    // Published once per run from this (sequential) tail, so the
    // totals are independent of worker scheduling.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        metrics.addCounter("sweep.scenarios", scenarios.size());
        metrics.addCounter("sweep.jobs", jobs.size());
        metrics.addCounter("sweep.plan_groups", groups.size());
        metrics.addCounter("sweep.result_cache_hits", report.cacheHits);
        metrics.addCounter("sweep.result_cache_misses",
                           report.cacheMisses);
        metrics.addCounter("sweep.failures", report.failures);
        for (const auto &group : groups)
            metrics.recordValue("sweep.group_size",
                                double(group.size()));
        for (const std::size_t i : jobs)
            if (report.results[i].ok())
                metrics.recordValue(
                    "sweep.batch_size",
                    double(report.results[i].resolvedBatch));
    }
    return report;
}

} // namespace diva
