/**
 * @file
 * Unit tests for the design-space sweep subsystem: spec expansion
 * counts, serial-vs-parallel result equality, cache-hit accounting,
 * summary statistics and Pareto-frontier extraction.
 */

#include <gtest/gtest.h>

#include "sweep/aggregate.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace diva
{
namespace
{

/** The CSV data row writeCsv emits for `r`, newline stripped. */
std::string
csvRow(const ScenarioResult &r)
{
    std::string row;
    appendCsvRow(row, r);
    row.pop_back();
    return row;
}

/** A small but multi-axis spec: 2 configs x 2 models x 2 algos. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"ResNet-50", "BERT-base"};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.batches = {8};
    return spec;
}

TEST(SweepSpec, ExpansionCountsCartesianProduct)
{
    const SweepSpec::Expansion e = smallSpec().expand();
    EXPECT_EQ(e.rawCount, 8u);
    EXPECT_EQ(e.scenarios.size(), 8u);
    EXPECT_EQ(e.invalidSkipped, 0u);
    EXPECT_EQ(e.duplicatesRemoved, 0u);
}

TEST(SweepSpec, ExpansionSkipsInvalidConfigs)
{
    SweepSpec spec = smallSpec();
    AcceleratorConfig bad = tpuV3Ws();
    bad.hasPpu = true; // WS + PPU fails validate()
    spec.configs.push_back(bad);
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.rawCount, 12u);
    EXPECT_EQ(e.invalidSkipped, 4u);
    EXPECT_EQ(e.scenarios.size(), 8u);
}

TEST(SweepSpec, ExpansionDeduplicatesRepeatedAxes)
{
    SweepSpec spec = smallSpec();
    spec.configs.push_back(tpuV3Ws()); // repeated design point
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.rawCount, 12u);
    EXPECT_EQ(e.duplicatesRemoved, 4u);
    EXPECT_EQ(e.scenarios.size(), 8u);
}

TEST(SweepSpec, GpuScenariosIgnoreConfigAxis)
{
    SweepSpec spec = smallSpec();
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kGpu};
    spec.gpus = {GpuConfig::a100Fp16()};
    const SweepSpec::Expansion e = spec.expand();
    // The GPU scenarios coincide across the 2-config axis: 8 chip
    // scenarios + 4 unique GPU scenarios (4 duplicates removed).
    EXPECT_EQ(e.rawCount, 16u);
    EXPECT_EQ(e.duplicatesRemoved, 4u);
    EXPECT_EQ(e.scenarios.size(), 12u);
}

TEST(SweepSpec, ExpansionOrderIsDeterministic)
{
    const SweepSpec spec = smallSpec();
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t i = 0; i < a.scenarios.size(); ++i)
        EXPECT_EQ(a.scenarios[i].key(),
                  b.scenarios[i].key());
}

TEST(SweepRunner, ParallelBitIdenticalToSerial)
{
    SweepOptions serial_opts;
    serial_opts.threads = 1;
    SweepRunner serial(serial_opts);
    SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    SweepRunner parallel(parallel_opts);

    const std::vector<Scenario> scenarios = smallSpec().expand().scenarios;
    const SweepReport a = serial.run(scenarios);
    const SweepReport b = parallel.run(scenarios);

    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        SCOPED_TRACE(a.results[i].scenario.label());
        EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
        EXPECT_EQ(a.results[i].seconds, b.results[i].seconds);
        EXPECT_EQ(a.results[i].utilization, b.results[i].utilization);
        EXPECT_EQ(a.results[i].energyJ, b.results[i].energyJ);
        EXPECT_EQ(a.results[i].dramBytes, b.results[i].dramBytes);
        EXPECT_EQ(a.results[i].cacheHit, b.results[i].cacheHit);
        // Emitted rows must match byte for byte.
        EXPECT_EQ(csvRow(a.results[i]), csvRow(b.results[i]));
    }
}

TEST(SweepRunner, DuplicateScenariosAreCacheHits)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 4;
    const std::vector<Scenario> scenarios = {s, s, s};

    SweepRunner runner;
    const SweepReport report = runner.run(scenarios);
    EXPECT_EQ(report.cacheMisses, 1u);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_FALSE(report.results[0].cacheHit);
    EXPECT_TRUE(report.results[1].cacheHit);
    EXPECT_TRUE(report.results[2].cacheHit);
    EXPECT_EQ(report.results[0].cycles, report.results[1].cycles);
}

TEST(SweepRunner, CachePersistsAcrossRuns)
{
    const std::vector<Scenario> scenarios = smallSpec().expand().scenarios;
    SweepRunner runner;
    const SweepReport first = runner.run(scenarios);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, scenarios.size());
    EXPECT_EQ(runner.cacheSize(), scenarios.size());

    const SweepReport second = runner.run(scenarios);
    EXPECT_EQ(second.cacheHits, scenarios.size());
    EXPECT_EQ(second.cacheMisses, 0u);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_TRUE(second.results[i].cacheHit);
        EXPECT_EQ(first.results[i].cycles, second.results[i].cycles);
    }

    EXPECT_EQ(runner.cacheSize(), scenarios.size());
    EXPECT_EQ(SweepRunner().cacheSize(), 0u);
}

TEST(SweepRunner, AutoBatchResolvesToFigureProtocol)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = kAutoBatch;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.resolvedBatch, 0);
    // An auto-batch scenario and its resolved explicit twin share the
    // simulation but not the key (different requests).
    Scenario explicit_twin = s;
    explicit_twin.batch = r.resolvedBatch;
    EXPECT_NE(s.key(), explicit_twin.key());
    const ScenarioResult r2 = runScenario(explicit_twin);
    EXPECT_EQ(r.cycles, r2.cycles);
}

TEST(SweepRunner, FailedScenarioReportsErrorNotCrash)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 1;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 8; // global batch 1 < 8 chips is impossible
    SweepRunner runner;
    const SweepReport report = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(report.failures, 1u);
    EXPECT_FALSE(report.results[0].ok());
}

TEST(SweepRunner, FailedResultsAreNotCachedAcrossRuns)
{
    // Regression: a failed result pinned in the cross-run cache would
    // replay a possibly transient error forever instead of retrying.
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 1;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 8; // fails: batch 1 cannot shard over 8 chips
    SweepRunner runner; // cacheAcrossRuns = true
    const SweepReport first = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(first.failures, 1u);
    EXPECT_EQ(first.cacheMisses, 1u);
    EXPECT_EQ(runner.cacheSize(), 0u); // the failure was not kept

    // The second run must re-simulate, not replay the cached failure.
    const SweepReport second = runner.run(std::vector<Scenario>{s});
    EXPECT_EQ(second.cacheMisses, 1u);
    EXPECT_EQ(second.cacheHits, 0u);
    EXPECT_FALSE(second.results[0].cacheHit);
    EXPECT_EQ(second.failures, 1u);

    // Within one run duplicates still collapse into one simulation.
    const SweepReport dup = runner.run(std::vector<Scenario>{s, s});
    EXPECT_EQ(dup.cacheMisses, 1u);
    EXPECT_EQ(dup.cacheHits, 1u);
    EXPECT_EQ(dup.failures, 2u);
}

TEST(SweepRunner, PodScenariosReportEnergyUtilizationAndTraffic)
{
    // Regression: pod-backend rows used to report energy_j = 0.
    Scenario s;
    s.config = divaDefault(true);
    s.model = "SqueezeNet";
    s.batch = 32;
    s.backend = SweepBackend::kMultiChip;
    s.pod.numChips = 4;
    const ScenarioResult r = runScenario(s);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.energyJ, 0.0);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_GT(r.dramBytes, 0u);
    EXPECT_GT(r.computeCycles, 0u);
    EXPECT_GT(r.allReduceCycles, 0u);
    EXPECT_EQ(r.computeCycles + r.allReduceCycles, r.cycles);

    // The pod spends at least the chips' summed iteration energy.
    Scenario chip = s;
    chip.backend = SweepBackend::kSingleChip;
    chip.batch = 8; // one pod shard
    const ScenarioResult shard = runScenario(chip);
    ASSERT_TRUE(shard.ok()) << shard.error;
    EXPECT_GE(r.energyJ, 4.0 * shard.energyJ);
}

TEST(Aggregate, SummaryStatsOnKnownSeries)
{
    // 1..100: median 50.5, p95 = 95.05 by linear interpolation.
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(double(i));
    const SummaryStats s = summarize(values);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_DOUBLE_EQ(s.median, 50.5);
    EXPECT_DOUBLE_EQ(s.p95, 95.05);
}

/** Five hand-computed points over (cycles, energy). */
std::vector<ScenarioResult>
paretoFixture()
{
    auto point = [](Cycles cycles, double energy) {
        ScenarioResult r;
        r.cycles = cycles;
        r.energyJ = energy;
        return r;
    };
    return {
        point(100, 10.0), // [0] frontier: fastest
        point(200, 4.0),  // [1] frontier: cheaper than 0, faster than 3
        point(200, 6.0),  // [2] dominated by 1 (same cycles, more J)
        point(400, 2.0),  // [3] frontier: cheapest
        point(500, 5.0),  // [4] dominated by 1 and 3
    };
}

TEST(Aggregate, ParetoFrontierOnHandComputedFixture)
{
    const std::vector<std::size_t> frontier = paretoFrontier(
        paretoFixture(), {Objective::kCycles, Objective::kEnergy});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Aggregate, ParetoSingleObjectiveKeepsAllTies)
{
    auto fixture = paretoFixture();
    const std::vector<std::size_t> frontier =
        paretoFrontier(fixture, {Objective::kCycles});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0}));
    // Tie on the single objective: both minima survive.
    fixture[1].cycles = 100;
    const std::vector<std::size_t> tied =
        paretoFrontier(fixture, {Objective::kCycles});
    EXPECT_EQ(tied, (std::vector<std::size_t>{0, 1}));
}

TEST(Aggregate, ParetoMaximizesUtilization)
{
    auto fixture = paretoFixture();
    fixture[0].utilization = 0.2;
    fixture[1].utilization = 0.9;
    fixture[2].utilization = 0.1;
    fixture[3].utilization = 0.9;
    fixture[4].utilization = 0.95;
    const std::vector<std::size_t> frontier = paretoFrontier(
        fixture, {Objective::kCycles, Objective::kUtilization});
    // 4 now survives on utilization; 2 stays dominated by 1, and 3
    // falls to 1 (same utilization, more cycles).
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 4}));
}

TEST(Aggregate, ParetoExcludesFailedResults)
{
    auto fixture = paretoFixture();
    fixture[0].error = "boom"; // the fastest point drops out
    const std::vector<std::size_t> frontier = paretoFrontier(
        fixture, {Objective::kCycles, Objective::kEnergy});
    EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 3}));
}

TEST(Emit, CsvIsDeterministicAndAlignedWithHeader)
{
    Scenario s;
    s.config = divaDefault(true);
    s.model = "ResNet-50";
    s.batch = 4;
    const ScenarioResult r = runScenario(s);
    const std::string row = csvRow(r);
    EXPECT_EQ(row, csvRow(r));
    const auto count_commas = [](const std::string &text) {
        return std::count(text.begin(), text.end(), ',');
    };
    EXPECT_EQ(count_commas(row), count_commas(csvHeader()));
}

TEST(Emit, JsonIsIndependentOfCacheState)
{
    // The JSON file is a pure function of the scenario list, so a
    // rerun against a warm cache (all hits) emits identical bytes.
    SweepRunner runner;
    SweepSpec spec = smallSpec();
    spec.models = {"ResNet-50"};
    const SweepReport cold = runner.run(spec);
    const SweepReport warm = runner.run(spec);
    EXPECT_EQ(cold.cacheMisses, 4u);
    EXPECT_EQ(warm.cacheHits, 4u);
    std::ostringstream a, b;
    writeJson(a, cold);
    writeJson(b, warm);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"results\": ["), std::string::npos);
    EXPECT_NE(a.str().find("\"compute_cycles\": "), std::string::npos);
    EXPECT_EQ(a.str().find("cache"), std::string::npos);
}

TEST(Emit, FormatDoubleGuardsNonFiniteValues)
{
    EXPECT_EQ(formatDouble(std::nan("")), "nan");
    EXPECT_EQ(formatDouble(HUGE_VAL), "inf");
    EXPECT_EQ(formatDouble(-HUGE_VAL), "-inf");
    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(0.25), "0.25");
}

TEST(Emit, JsonStaysValidWithNonFiniteMetrics)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "ResNet-50";
    r.seconds = std::nan("");
    r.utilization = HUGE_VAL;
    report.results.push_back(r);
    std::ostringstream oss;
    writeJson(oss, report);
    EXPECT_NE(oss.str().find("\"seconds\": null"), std::string::npos);
    EXPECT_NE(oss.str().find("\"utilization\": null"),
              std::string::npos);
    EXPECT_EQ(oss.str().find("nan"), std::string::npos);
    EXPECT_EQ(oss.str().find("inf"), std::string::npos);
    // The CSV spells them out as text instead.
    const std::string row = csvRow(r);
    EXPECT_NE(row.find("nan"), std::string::npos);
    EXPECT_NE(row.find("inf"), std::string::npos);
}

TEST(Emit, JsonEscapesControlCharacters)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "ResNet-50";
    r.error = "bad\r\nthing\x01happened";
    report.results.push_back(r);
    std::ostringstream oss;
    writeJson(oss, report);
    const std::string json = oss.str();
    EXPECT_NE(json.find("bad\\r\\nthing\\u0001happened"),
              std::string::npos);
    // No raw control characters survive into the document.
    for (char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << int(c);
}

TEST(Scenario, BuildModelKnowsTheFullZoo)
{
    for (const std::string &name : knownModels()) {
        const Network net = buildModel(name);
        EXPECT_EQ(net.name, name);
        EXPECT_FALSE(net.layers.empty());
    }
    EXPECT_THROW(buildModel("AlexNet"), std::runtime_error);
}

TEST(Scenario, GpuKeyCoversTimingFieldsNotJustName)
{
    Scenario a;
    a.model = "ResNet-50";
    a.backend = SweepBackend::kGpu;
    a.gpu = GpuConfig::a100Fp16();
    Scenario b = a;
    EXPECT_EQ(a.key(), b.key());
    b.gpu.gemmEfficiency = 0.5; // same name, different design point
    EXPECT_NE(a.key(), b.key());
    // A twin in the 7th significant digit is a design point of its own.
    ASSERT_EQ(a.gpu.kernelOverheadSec, 5e-6);
    Scenario c = a;
    c.gpu.kernelOverheadSec = 5.000001e-6;
    EXPECT_NE(a.key(), c.key());
}

TEST(Scenario, PodAxesAreDistinctDesignPoints)
{
    // Interconnect bandwidth and link latency are sweepable pod axes:
    // each value is its own key and survives expansion.
    Scenario base;
    base.config = divaDefault(true);
    base.model = "ResNet-50";
    base.backend = SweepBackend::kMultiChip;
    Scenario fat_links = base;
    fat_links.pod.interconnectGBs = 140.0;
    Scenario long_links = base;
    long_links.pod.linkLatencyCycles = 2000;
    // Twins in the 7th significant digit, which 6-digit text merges.
    Scenario ici_twin = base;
    ici_twin.pod.interconnectGBs = 70.00001;
    Scenario freq_twin = base;
    freq_twin.config.freqGhz = 0.9400001;
    Scenario dram_twin = base;
    dram_twin.config.dramBandwidthGBs = 450.0001;
    const std::vector<Scenario> points = {base,    fat_links, long_links,
                                          ici_twin, freq_twin, dram_twin};
    for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(points[i].key(), points[j].key()) << i << " " << j;

    SweepSpec spec;
    spec.configs = {divaDefault(true), freq_twin.config, dram_twin.config};
    spec.models = {"ResNet-50"};
    spec.batches = {64};
    spec.backends = {SweepBackend::kMultiChip};
    spec.pods = {base.pod, fat_links.pod, long_links.pod, ici_twin.pod};
    const SweepSpec::Expansion e = spec.expand();
    EXPECT_EQ(e.scenarios.size(), 12u);
    EXPECT_EQ(e.duplicatesRemoved, 0u);
}

TEST(Scenario, KeyCoversEveryDesignField)
{
    // Every AcceleratorConfig field, and each pod field, is part of
    // the design key: changing any one gives another key.
    Scenario base;
    base.config = divaDefault(true);
    base.model = "ResNet-50";
    base.backend = SweepBackend::kMultiChip;
    const std::string key = base.key();
    auto mutated = [&](auto &&mutate) {
        Scenario s = base;
        mutate(s.config, s.pod);
        return s.key();
    };
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.name = "x"; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.dataflow = Dataflow::kOutputStationary;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.peRows = 64; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.peCols = 64; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.freqGhz = 1.0; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.sramBytes = 8_MiB; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.dramBandwidthGBs = 1.0;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.dramLatencyCycles = 7;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.weightFillRowsPerCycle = 1;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.wsDoubleBufferWeights = true;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) {
        c.drainRowsPerCycle = 1;
    }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.hasPpu = false; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.inputBytes = 4; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.accumBytes = 8; }));
    EXPECT_NE(key, mutated([](auto &c, auto &) { c.vectorLanes = 8; }));
    EXPECT_NE(key, mutated([](auto &, auto &p) { p.numChips = 4; }));
    EXPECT_NE(key, mutated([](auto &, auto &p) {
        p.interconnectGBs = 35.0;
    }));
    EXPECT_NE(key, mutated([](auto &, auto &p) {
        p.linkLatencyCycles = 7;
    }));
}

TEST(Scenario, KeyTextIsPinned)
{
    // The disk store (DiskCache::kFormatVersion 2) is keyed on this
    // exact text: changing it without a format bump would orphan or
    // alias every stored record.
    Scenario chip;
    chip.config = divaDefault(true);
    chip.model = "SqueezeNet";
    chip.batch = 8;
    EXPECT_EQ(chip.key(), "chip,SqueezeNet,0,DP-SGD(R),8,0,DiVa,DiVa,128,"
                          "128,0.94,16777216,450,100,8,0,8,1,2,4,1024");

    Scenario pod;
    pod.config = tpuV3Ws();
    pod.model = "ResNet-50";
    pod.modelScale = 64;
    pod.microbatch = 4;
    pod.algorithm = TrainingAlgorithm::kDpSgd;
    pod.backend = SweepBackend::kMultiChip;
    pod.pod.numChips = 4;
    pod.pod.interconnectGBs = 1.0000001;
    EXPECT_EQ(pod.key(),
              "pod,ResNet-50,64,DP-SGD,0,4,17179869184,Systolic-WS,WS,128,"
              "128,0.94,16777216,450,100,8,0,8,0,2,4,1024,4,1.0000001,500");

    Scenario gpu;
    gpu.model = "BERT-base";
    gpu.batch = 16;
    gpu.algorithm = TrainingAlgorithm::kSgd;
    gpu.backend = SweepBackend::kGpu;
    gpu.gpu = GpuConfig::a100Fp16();
    EXPECT_EQ(gpu.key(), "gpu,BERT-base,0,SGD,16,0,A100(FP16),312,1555,"
                         "108,128,128,16,5e-06,0.85");
}

TEST(Emit, PodRowsAreDistinguishableByLinkDesignPoint)
{
    // Regression: two pods differing only in --ici-gbs/--link-lat
    // must not emit identical identity columns.
    ScenarioResult a;
    a.scenario.config = divaDefault(true);
    a.scenario.model = "ResNet-50";
    a.scenario.backend = SweepBackend::kMultiChip;
    a.scenario.pod.numChips = 2;
    ScenarioResult b = a;
    b.scenario.pod.interconnectGBs = 140.0;
    ScenarioResult c = a;
    c.scenario.pod.linkLatencyCycles = 2000;
    // Twins in the 7th significant digit of ICI bandwidth.
    ScenarioResult d = a;
    d.scenario.pod.interconnectGBs = 1.0000001;
    ScenarioResult e = a;
    e.scenario.pod.interconnectGBs = 1.0000004;
    EXPECT_NE(csvRow(a), csvRow(b));
    EXPECT_NE(csvRow(a), csvRow(c));
    EXPECT_NE(csvRow(d), csvRow(e));
    EXPECT_NE(a.scenario.label(), b.scenario.label());
    EXPECT_NE(a.scenario.label(), c.scenario.label());
    EXPECT_NE(d.scenario.label(), e.scenario.label());
    std::ostringstream json;
    SweepReport report;
    report.results = {a, b};
    writeJson(json, report);
    EXPECT_NE(json.str().find("\"ici_gbs\": 140"), std::string::npos);
}

TEST(Scenario, CanonicalKeySeparatesBackends)
{
    Scenario chip;
    chip.config = divaDefault(true);
    chip.model = "ResNet-50";
    Scenario pod = chip;
    pod.backend = SweepBackend::kMultiChip;
    Scenario gpu = chip;
    gpu.backend = SweepBackend::kGpu;
    gpu.gpu = GpuConfig::a100Fp16();
    EXPECT_NE(chip.key(), pod.key());
    EXPECT_NE(chip.key(), gpu.key());
    EXPECT_NE(pod.key(), gpu.key());
}

} // namespace
} // namespace diva
