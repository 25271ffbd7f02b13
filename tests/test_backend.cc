/**
 * @file
 * Tests for the simulation-backend layer: backend names and their
 * parse, capability flags driving empty/NaN CSV
 * and null JSON cells for unmodeled metrics, PlanCache hit/miss
 * accounting and exact keys, and byte-identity of mixed chip/pod/gpu
 * and pod x micro-batch sweeps between shared-cache runs at 1 and 4
 * threads and plans built fresh per scenario.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/plan_cache.h"
#include "common/task_pool.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

/** The cells of one CSV line, split by the shared CSV reader. */
std::vector<std::string>
cells(std::string line)
{
    std::vector<std::string_view> views;
    EXPECT_EQ(splitCsvCells(line, &views), "") << line;
    return {views.begin(), views.end()};
}

/** The cells of the CSV data row writeCsv emits for `r`. */
std::vector<std::string>
cells(const ScenarioResult &r)
{
    std::string row;
    appendCsvRow(row, r);
    row.pop_back(); // the newline
    return cells(row);
}

/** Column index of `name` in csvHeader(). */
std::size_t
column(const std::string &name)
{
    const std::vector<std::string> header = cells(csvHeader());
    for (std::size_t i = 0; i < header.size(); ++i)
        if (header[i] == name)
            return i;
    ADD_FAILURE() << "no CSV column '" << name << "'";
    return 0;
}

TEST(Backend, BuiltInsResolveByNameAndKind)
{
    for (const SweepBackend b : {SweepBackend::kSingleChip,
                                 SweepBackend::kMultiChip,
                                 SweepBackend::kGpu}) {
        // The kind round-trips through its name.
        const std::optional<SweepBackend> parsed =
            backendFromName(backendName(b));
        ASSERT_TRUE(parsed.has_value()) << backendName(b);
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_STREQ(backendName(SweepBackend::kSingleChip), "chip");
    EXPECT_STREQ(backendName(SweepBackend::kMultiChip), "pod");
    EXPECT_STREQ(backendName(SweepBackend::kGpu), "gpu");
    EXPECT_FALSE(backendFromName("warp-drive").has_value());
    EXPECT_FALSE(backendFromName("").has_value());
    EXPECT_FALSE(backendFromName("Chip").has_value());
}

TEST(Backend, CapabilitiesMatchSubstrates)
{
    for (const SweepBackend b :
         {SweepBackend::kSingleChip, SweepBackend::kMultiChip}) {
        const BackendCaps caps = capabilities(b);
        EXPECT_TRUE(caps.cycles && caps.utilization && caps.energy &&
                    caps.dramTraffic && caps.engineRating)
            << backendName(b);
    }
    const BackendCaps gpu = capabilities(SweepBackend::kGpu);
    EXPECT_FALSE(gpu.cycles || gpu.utilization || gpu.energy ||
                 gpu.dramTraffic || gpu.engineRating);
}

TEST(PlanCache, CountsHitsAndMissesPerDistinctKey)
{
    PlanCache plans;
    EXPECT_EQ(plans.stats().hits() + plans.stats().misses(), 0u);
    const auto net_a = plans.network("SqueezeNet", 0);
    const auto net_b = plans.network("SqueezeNet", 0);
    EXPECT_EQ(net_a.get(), net_b.get()); // shared, not rebuilt
    plans.network("MobileNet", 0);
    PlanCache::Stats s = plans.stats();
    EXPECT_EQ(s.networkMisses, 2u);
    EXPECT_EQ(s.networkHits, 1u);

    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 0);
    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 0);
    // A different micro-batch is a different plan.
    plans.stream(*net_a, "SqueezeNet", 0, TrainingAlgorithm::kDpSgdR,
                 8, 4);
    s = plans.stats();
    EXPECT_EQ(s.streamMisses, 2u);
    EXPECT_EQ(s.streamHits, 1u);
    EXPECT_EQ(s.hits(), 2u);
    EXPECT_EQ(s.misses(), 4u);
}

TEST(PlanCache, LongModelNamesAreDistinctPlans)
{
    // Keys hold the whole name: names sharing a long prefix must not
    // share a plan.
    PlanCache plans;
    const auto net = plans.network("SqueezeNet", 0);
    const std::string prefix(192, 'm');
    const auto a = plans.stream(*net, prefix + "A", 0,
                                TrainingAlgorithm::kDpSgdR, 8, 0);
    const auto b = plans.stream(*net, prefix + "B", 0,
                                TrainingAlgorithm::kDpSgdR, 8, 0);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(plans.stats().streamMisses, 2u);
    EXPECT_EQ(plans.stats().streamHits, 0u);
}

/**
 * The caller's thread count is a pure concurrency knob: concurrent
 * same-key misses resolve first-insert-wins with the loser counting a
 * hit. So the hit/miss totals must be byte-identical across thread
 * counts {1, 4} for the same lookup workload.
 */
TEST(PlanCache, HitMissTotalsIndependentOfThreads)
{
    const char *kModels[] = {"SqueezeNet", "MobileNet"};
    const int kBatches[] = {4, 8};

    // Each of `tasks` workers performs the identical lookup sequence:
    // misses == distinct keys, hits == lookups - misses, regardless
    // of which worker builds first.
    auto drive = [&](PlanCache &plans, int threads) {
        TaskPool pool;
        const std::size_t tasks = std::size_t(threads) * 2;
        pool.parallelFor(tasks, threads, [&](std::size_t) {
            for (const char *model : kModels) {
                const auto net = plans.network(model, 0);
                for (int batch : kBatches)
                    plans.stream(*net, model, 0,
                                 TrainingAlgorithm::kDpSgdR, batch, 0);
            }
        });
        return tasks;
    };

    for (int threads : {1, 4}) {
        PlanCache plans;
        const std::size_t tasks = drive(plans, threads);
        const PlanCache::Stats s = plans.stats();
        EXPECT_EQ(s.networkMisses, 2u) << threads << " threads";
        EXPECT_EQ(s.streamMisses, 4u) << threads << " threads";
        EXPECT_EQ(s.networkHits, tasks * 2u - 2u) << threads << " threads";
        EXPECT_EQ(s.streamHits, tasks * 4u - 4u) << threads << " threads";
    }
}

TEST(PlanCache, UnknownModelThrowsAndCachesNothing)
{
    PlanCache plans;
    EXPECT_THROW(plans.network("AlexNet", 0), std::runtime_error);
    // Nothing was cached, so a retry builds (and throws) again.
    EXPECT_THROW(plans.network("AlexNet", 0), std::runtime_error);
    EXPECT_EQ(plans.stats().hits(), 0u);
    EXPECT_EQ(plans.stats().misses(), 0u);
}

/** Mixed chip/pod/gpu spec: 2 configs x 1 model x 2 batches. */
SweepSpec
mixedSpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.batches = {8, 32};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR};
    spec.backends = {SweepBackend::kSingleChip,
                     SweepBackend::kMultiChip, SweepBackend::kGpu};
    MultiChipConfig pod;
    pod.numChips = 2;
    spec.pods = {pod};
    spec.gpus = {GpuConfig::a100Fp16()};
    return spec;
}

/**
 * Pods x micro-batches: a 4- and a 5-example pass over odd batch 37
 * leave remainder passes; chip and pod backends.
 */
SweepSpec
podMicrobatchSpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet", "BERT-base"};
    spec.batches = {37, 64};
    spec.microbatches = {0, 4, 5};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    for (const int chips : {2, 8}) {
        MultiChipConfig pod;
        pod.numChips = chips;
        spec.pods.push_back(pod);
    }
    return spec;
}

TEST(SweepRunner, PlanCacheCountersSurfaceInReport)
{
    SweepRunner runner;
    const SweepReport cold = runner.run(mixedSpec());
    // Every scenario shares one workload per batch: far fewer plan
    // builds than plan lookups.
    EXPECT_GT(cold.planMisses, 0u);
    EXPECT_GT(cold.planHits, 0u);
    EXPECT_EQ(runner.planCache().stats().misses(), cold.planMisses);

    // A warm rerun is all result-cache hits: no jobs, no plan lookups.
    const SweepReport warm = runner.run(mixedSpec());
    EXPECT_EQ(warm.planHits, 0u);
    EXPECT_EQ(warm.planMisses, 0u);
}

/** CSV + JSON of `report`. */
std::string
emitted(const SweepReport &report)
{
    std::ostringstream csv, json;
    writeCsv(csv, report);
    writeJson(json, report);
    return csv.str() + json.str();
}

TEST(SweepRunner, MixedSweepCsvIsByteIdenticalAcrossPlanCacheAndThreads)
{
    // Plans shared across a whole sweep, at any thread count, give the
    // bytes of plans built fresh per scenario.
    for (const SweepSpec &spec : {mixedSpec(), podMicrobatchSpec()}) {
        const std::vector<Scenario> scenarios = spec.expand().scenarios;
        ASSERT_FALSE(scenarios.empty());
        SweepReport fresh;
        for (const Scenario &s : scenarios)
            fresh.results.push_back(runScenario(s));
        const std::string reference = emitted(fresh);
        for (const int threads : {1, 4}) {
            SweepOptions opts;
            opts.threads = threads;
            SweepRunner runner(opts);
            const SweepReport report = runner.run(scenarios);
            EXPECT_EQ(report.failures, 0u);
            EXPECT_EQ(emitted(report), reference)
                << scenarios.front().label() << ", threads=" << threads;
        }
    }
}

TEST(PodBackend, IgnoresMicrobatch)
{
    // Known gap, pinned so that closing it is a deliberate change: the
    // pod prices each chip's shard as one monolithic pass, so a pod row
    // at micro-batch 4 equals its micro-batch-0 twin in every cell but
    // the micro-batch itself. A chip row re-runs forward/backward per
    // micro-batch and differs.
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.batches = {16};
    spec.microbatches = {0, 4};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    MultiChipConfig pod;
    pod.numChips = 2;
    spec.pods = {pod};
    const SweepReport report = SweepRunner().run(spec);
    ASSERT_EQ(report.failures, 0u);
    // Axis-major order: per (config, algorithm), micro-batch 0's chip
    // and pod rows, then micro-batch 4's.
    ASSERT_EQ(report.results.size(), 16u);
    const std::size_t mb = column("microbatch");
    std::size_t pod_pairs = 0;
    for (std::size_t g = 0; g < report.results.size(); g += 4) {
        for (std::size_t b = 0; b < 2; ++b) {
            const ScenarioResult &whole = report.results[g + b];
            const ScenarioResult &split = report.results[g + 2 + b];
            ASSERT_EQ(whole.scenario.microbatch, 0);
            ASSERT_EQ(split.scenario.microbatch, 4);
            ASSERT_EQ(whole.scenario.backend, split.scenario.backend);
            std::vector<std::string> a = cells(whole), c = cells(split);
            a[mb] = c[mb];
            if (whole.scenario.backend == SweepBackend::kMultiChip) {
                EXPECT_EQ(a, c) << whole.scenario.config.name;
                ++pod_pairs;
            } else {
                EXPECT_LT(whole.cycles, split.cycles)
                    << whole.scenario.config.name;
            }
        }
    }
    EXPECT_EQ(pod_pairs, 4u);
}

TEST(Emit, GpuRowsEmitEmptyOrNanForUnmodeledMetrics)
{
    Scenario s;
    s.model = "SqueezeNet";
    s.batch = 8;
    s.backend = SweepBackend::kGpu;
    s.gpu = GpuConfig::a100Fp16();
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.seconds, 0.0);

    const std::vector<std::string> row = cells(r);
    ASSERT_EQ(row.size(), cells(csvHeader()).size());
    EXPECT_EQ(row[column("cycles")], "");
    EXPECT_EQ(row[column("compute_cycles")], "");
    EXPECT_EQ(row[column("allreduce_cycles")], "");
    EXPECT_EQ(row[column("utilization")], "nan");
    EXPECT_EQ(row[column("energy_j")], "nan");
    EXPECT_EQ(row[column("dram_bytes")], "");
    EXPECT_EQ(row[column("postproc_dram_bytes")], "");
    EXPECT_EQ(row[column("engine_power_w")], "nan");
    EXPECT_EQ(row[column("engine_area_mm2")], "nan");
    EXPECT_NE(row[column("seconds")], "nan");

    SweepReport report;
    report.results.push_back(r);
    std::ostringstream json;
    writeJson(json, report);
    EXPECT_NE(json.str().find("\"cycles\": null"), std::string::npos);
    EXPECT_NE(json.str().find("\"utilization\": null"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"energy_j\": null"), std::string::npos);
    EXPECT_NE(json.str().find("\"dram_bytes\": null"),
              std::string::npos);
    EXPECT_EQ(json.str().find("\"seconds\": null"), std::string::npos);
}

TEST(Emit, ChipRowsStillCarryEveryMetric)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "SqueezeNet";
    s.batch = 8;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    const std::vector<std::string> row = cells(r);
    EXPECT_NE(row[column("cycles")], "");
    EXPECT_NE(row[column("utilization")], "nan");
    EXPECT_NE(row[column("energy_j")], "nan");
    EXPECT_NE(row[column("dram_bytes")], "");
}

TEST(Serve, BackendAllowListGatesThePricingSubstrate)
{
    ServeSpec spec;
    spec.config = divaDefault(true);
    TenantJob job;
    job.name = "t0";
    job.model = "SqueezeNet";
    job.batch = 4;
    job.steps = 2;
    spec.workload.name = "mix";
    spec.workload.jobs = {job};

    // Pricing needs "chip" here (chips == 1); a pod-only allow-list
    // must refuse rather than silently switch substrates.
    spec.backends = {SweepBackend::kMultiChip};
    EXPECT_EQ(simulateServe(spec).error,
              "backend 'chip' is not in the allowed --backends list");

    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    const ServeResult ok = simulateServe(spec);
    EXPECT_TRUE(ok.ok()) << ok.error;
}

} // namespace
} // namespace diva
