/**
 * @file
 * Sweep-engine throughput benchmark: expands a 120-scenario design
 * sweep (4 design points x 5 models x 3 batches x 2 algorithms) and
 * times three regimes -- "cold" (every scenario simulated, plan-cache
 * grouping amortizing model builds; aggregated over several
 * fresh-runner repetitions so the CI gate measures more than a few
 * milliseconds), "warm-memory" (the same runner
 * resolving a tiled request list from its result cache) and
 * "warm-disk" (a fresh runner whose preload of the on-disk store
 * serves the same tiled list). Besides the google-benchmark
 * microbenchmarks it writes BENCH_sweep.json (path overridable with
 * --out) -- scenarios/sec and /min plus plan- and result-cache hit
 * rates per regime -- so CI can track the sweep perf trajectory. The
 * warm regimes are the ones held to the >= 1e6 scenarios/minute bar;
 * cold rows measure real simulation and sit far below it by design.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/format.h"
#include "common/table.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

using namespace diva;

namespace
{

/** Tiled-request multiplier for the warm (cache-resolution) phases. */
constexpr std::size_t kWarmTiles = 400;

/** Fresh-runner repetitions aggregated into the cold row: one 120-
 *  scenario pass is a few milliseconds, too short for the CI
 *  regression gate to measure without timing noise. */
constexpr int kColdReps = 8;

SweepSpec
benchSpec()
{
    SweepSpec spec;
    spec.configs = benchutil::designPoints();
    spec.models = {"SqueezeNet", "MobileNet", "LSTM-small", "ResNet-50",
                   "BERT-base"};
    spec.batches = {8, 32, 128};
    spec.algorithms = {TrainingAlgorithm::kDpSgdR,
                       TrainingAlgorithm::kDpSgd};
    return spec;
}

/** The scenario list tiled `tiles` times (labels identical; every
 *  repeat resolves through the cache like a real re-request). */
std::vector<Scenario>
tile(const std::vector<Scenario> &scenarios, std::size_t tiles)
{
    std::vector<Scenario> out;
    out.reserve(scenarios.size() * tiles);
    for (std::size_t t = 0; t < tiles; ++t)
        out.insert(out.end(), scenarios.begin(), scenarios.end());
    return out;
}

struct SweepFigures
{
    std::string phase;
    std::size_t scenarios = 0;
    double seconds = 0.0;
    double perSec = 0.0;
    double perMin = 0.0;
    double planHitRate = 0.0;
    double resultHitRate = 0.0;
};

SweepFigures
timeSweep(const std::string &phase, SweepRunner &runner,
          const std::vector<Scenario> &scenarios)
{
    const auto t0 = std::chrono::steady_clock::now();
    const SweepReport report = runner.run(scenarios);
    const auto t1 = std::chrono::steady_clock::now();

    for (const ScenarioResult &r : report.results)
        if (!r.ok()) {
            std::cerr << "bench_sweep: " << r.scenario.label() << ": "
                      << r.error << "\n";
            std::exit(1);
        }
    SweepFigures f;
    f.phase = phase;
    f.scenarios = scenarios.size();
    f.seconds = std::chrono::duration<double>(t1 - t0).count();
    f.perSec = double(scenarios.size()) / f.seconds;
    f.perMin = 60.0 * f.perSec;
    const double plan_lookups = double(report.planHits + report.planMisses);
    f.planHitRate = plan_lookups > 0.0
                        ? double(report.planHits) / plan_lookups
                        : 0.0;
    const double lookups = double(report.cacheHits + report.cacheMisses);
    f.resultHitRate =
        lookups > 0.0 ? double(report.cacheHits) / lookups : 0.0;
    return f;
}

void
writeSweepJson(const std::string &path,
               const std::vector<SweepFigures> &figures)
{
    std::vector<std::string> rows;
    for (const SweepFigures &f : figures) {
        std::ostringstream row;
        row << "{\"phase\": \"" << f.phase << "\""
            << ", \"scenarios\": " << f.scenarios
            << ", \"seconds\": " << jsonNumber(f.seconds)
            << ", \"scenarios_per_sec\": " << jsonNumber(f.perSec)
            << ", \"scenarios_per_min\": " << jsonNumber(f.perMin)
            << ", \"plan_cache_hit_rate\": " << jsonNumber(f.planHitRate)
            << ", \"result_cache_hit_rate\": "
            << jsonNumber(f.resultHitRate) << "}";
        rows.push_back(row.str());
    }
    benchutil::writeBenchJson(
        path, "sweep",
        {{"scenarios", "count"},
         {"seconds", "wall-clock seconds"},
         {"scenarios_per_sec",
          "scenarios evaluated per wall-clock second"},
         {"scenarios_per_min",
          "scenarios evaluated per wall-clock minute"},
         {"plan_cache_hit_rate", "fraction in [0,1]"},
         {"result_cache_hit_rate", "fraction in [0,1]"}},
        "sweeps", rows);
}

void
printSweepThroughput(const std::string &outPath)
{
    const SweepSpec spec = benchSpec();
    const std::vector<Scenario> scenarios = spec.expand().scenarios;
    const std::vector<Scenario> tiled = tile(scenarios, kWarmTiles);

    const std::string cacheDir =
        (std::filesystem::temp_directory_path() / "diva-bench-sweep-cache")
            .string();

    std::cout << "=== sweep evaluation throughput (" << scenarios.size()
              << " scenarios cold x" << kColdReps << " reps, x"
              << kWarmTiles << " tiled warm) ===\n";
    TextTable table({"phase", "scenarios", "seconds", "scenarios/s",
                     "scenarios/min", "plan hits", "result hits"});
    std::vector<SweepFigures> figures;

    SweepOptions opts;
    opts.threads = 4;
    opts.cacheDir = cacheDir;
    {
        SweepFigures cold;
        cold.phase = "cold";
        for (int rep = 0; rep < kColdReps; ++rep) {
            std::filesystem::remove_all(cacheDir); // cold means cold
            SweepRunner runner(opts);
            const SweepFigures f = timeSweep("cold", runner, scenarios);
            cold.scenarios += f.scenarios;
            cold.seconds += f.seconds;
            cold.planHitRate = f.planHitRate;
            cold.resultHitRate = f.resultHitRate;
            if (rep + 1 == kColdReps) {
                cold.perSec = double(cold.scenarios) / cold.seconds;
                cold.perMin = 60.0 * cold.perSec;
                figures.push_back(cold);
                // The last repetition's runner stays warm in memory.
                figures.push_back(timeSweep("warm-memory", runner, tiled));
            }
        }
    }
    {
        // A fresh runner on the now-populated store: resolution runs
        // entirely off the preloaded disk mirror.
        SweepRunner runner(opts);
        figures.push_back(timeSweep("warm-disk", runner, tiled));
    }
    std::filesystem::remove_all(cacheDir);

    for (const SweepFigures &f : figures)
        table.addRow({f.phase, std::to_string(f.scenarios),
                      TextTable::fmt(f.seconds, 3),
                      TextTable::fmt(f.perSec, 0),
                      TextTable::fmt(f.perMin, 0),
                      TextTable::fmt(f.planHitRate, 3),
                      TextTable::fmt(f.resultHitRate, 3)});
    table.print(std::cout);
    writeSweepJson(outPath, figures);
    std::cout << "\nwrote " << outPath << "\n\n";
}

void
BM_SweepWarmResolve(benchmark::State &state)
{
    const SweepSpec spec = benchSpec();
    const std::vector<Scenario> scenarios = spec.expand().scenarios;
    const std::vector<Scenario> tiled =
        tile(scenarios, std::size_t(state.range(0)));
    SweepOptions opts;
    opts.threads = 4;
    opts.cacheAcrossRuns = true;
    SweepRunner runner(opts);
    runner.run(scenarios); // warm the result cache once
    for (auto _ : state) {
        const SweepReport report = runner.run(tiled);
        benchmark::DoNotOptimize(report.cacheHits);
    }
    state.counters["scenarios_per_sec"] = benchmark::Counter(
        double(tiled.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepWarmResolve)->Arg(40)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        benchutil::benchOutPath(argc, argv, "BENCH_sweep.json");
    // Collect phase timings across the artifact runs; writeBenchJson
    // folds them into the envelope's "profile" object.
    obs::Profiler::instance().enable(true);
    printSweepThroughput(out);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
