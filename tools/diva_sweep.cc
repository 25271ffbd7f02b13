/**
 * @file
 * diva_sweep: parallel design-space sweep driver.
 *
 * Expands cartesian axes (dataflow x PPU x model x batch x algorithm,
 * plus optional pod and GPU backends; pod shape sweeps over chip
 * count, interconnect bandwidth and link latency) into scenarios, runs
 * them on a worker pool with result caching, and emits deterministic
 * CSV plus a Figure-13-style speedup table against the
 * weight-stationary TPUv3 baseline. With --cache-dir the result cache
 * persists on disk, so repeated invocations skip already-simulated
 * scenarios; --mode energy searches for the best-throughput config
 * under a --budget-j / --budget-w energy envelope.
 *
 * All sweep output goes to stdout (or --csv/--json files) and is a
 * pure function of the scenario list: running with --threads 4 is
 * byte-identical to --threads 1, and a warm-cache rerun emits the same
 * CSV/JSON bytes as the cold run. Progress, timing, and cache
 * accounting go to stderr / the summary.
 *
 * The WS baseline rows needed for the speedup table are swept first;
 * when the main sweep meets them again (WS is part of the default
 * dataflow axis) they are served from the result cache and reported
 * as cache hits.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arrivals/replay.h"
#include "cli_parse.h"
#include "common/table.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sweep/aggregate.h"
#include "sweep/disk_cache.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"
#include "tenant/emit.h"
#include "tenant/serve.h"
#include "train/algorithm.h"

using namespace diva;

namespace
{

constexpr char kTool[] = "diva_sweep";

std::optional<GpuConfig>
parseGpu(const std::string &name)
{
    if (name == "v100-fp32")
        return GpuConfig::v100Fp32();
    if (name == "v100-fp16")
        return GpuConfig::v100Fp16();
    if (name == "a100-fp32")
        return GpuConfig::a100Fp32();
    if (name == "a100-fp16")
        return GpuConfig::a100Fp16();
    return std::nullopt;
}

enum class CliMode
{
    kSweep,
    kEnergy,
    kTenant,
    kDuration,
    kTrace,
};

std::optional<CliMode>
modeFromName(const std::string &name)
{
    const char *names[] = {"sweep", "energy", "tenant", "duration",
                           "trace"};
    for (int m = 0; m < 5; ++m)
        if (name == names[m])
            return CliMode(m);
    return std::nullopt;
}

struct Args
{
    std::vector<std::string> models = {"ResNet-50", "BERT-base"};
    std::vector<int> scales = {0};
    std::vector<Dataflow> dataflows = {Dataflow::kWeightStationary,
                                       Dataflow::kOutputStationary,
                                       Dataflow::kOuterProduct};
    std::vector<bool> ppus = {false, true};
    std::vector<TrainingAlgorithm> algos = {TrainingAlgorithm::kDpSgd,
                                            TrainingAlgorithm::kDpSgdR};
    std::vector<int> batches = {kAutoBatch, 32, 64};
    std::vector<int> microbatches = {0};
    std::vector<int> chips;
    std::vector<double> iciGbs;
    std::vector<int> linkLatencies;
    std::vector<GpuConfig> gpus;
    std::vector<Objective> pareto;
    bool speedupTable = true;
    CliMode mode = CliMode::kSweep;
    EnergyBudget budget;
    std::vector<SchedPolicy> policies = allPolicies();
    std::uint64_t steps = 32;
    double arriveEvery = 0.0;
    cli::TraceInput trace;
    std::vector<double> loads = {1.0};
    bool admission = false;
    cli::Serving serving;
    /** exec.backends: empty = infer from the axes. */
    cli::Execution exec;
    cli::Output out;
    obs::CliObs obs;
};

cli::Spec
flagSpec(Args &args)
{
    const cli::Kind<std::string> model = [](const std::string &,
                                            const std::string &name,
                                            std::string &out) {
        const std::vector<std::string> zoo = knownModels();
        if (std::find(zoo.begin(), zoo.end(), name) == zoo.end())
            return "unknown model '" + name + "'; see --list-models";
        out = name;
        return std::string();
    };
    cli::Spec spec(kTool);
    spec.section("Sweep axes (comma-separated lists)")
        .add(cli::list("--models", "LIST",
                       "zoo models (default ResNet-50,BERT-base; see "
                       "--list-models)",
                       args.models, model))
        .add(cli::list("--scales", "LIST",
                       "input scales: image side / seq len (default 0 = "
                       "paper baseline)",
                       args.scales, cli::integer<int>()))
        .add(cli::list("--dataflows", "LIST", "WS,OS,DiVa (default all)",
                       args.dataflows, cli::dataflowKind()))
        .add(cli::list("--ppu", "LIST",
                       "off,on (default both; invalid combos such as "
                       "WS+PPU are skipped)",
                       args.ppus, cli::onOffKind()))
        .add(cli::list("--algos", "LIST",
                       "sgd,dpsgd,dpsgdr (default dpsgd,dpsgdr)",
                       args.algos,
                       cli::named(algorithmFromName, "algorithm",
                                  "sgd, dpsgd, or dpsgdr")))
        .add(cli::list("--batches", "LIST",
                       "sizes or 'auto' = largest vanilla DP-SGD batch "
                       "under 16 GiB (default auto,32,64)",
                       args.batches,
                       cli::orAuto(kAutoBatch, cli::integer<int>())))
        .add(cli::list("--microbatches", "LIST",
                       "micro-batch sizes, 0 = monolithic (default 0)",
                       args.microbatches, cli::integer<int>()))
        .add(cli::list("--chips", "LIST",
                       "add a data-parallel pod backend with these chip "
                       "counts",
                       args.chips, cli::integer<int>(1), true))
        .add(cli::list("--ici-gbs", "LIST",
                       "pod interconnect bandwidths in GB/s (default 70; "
                       "implies --chips 8)",
                       args.iciGbs, cli::positive(), true))
        .add(cli::list("--link-lat", "LIST",
                       "pod link latencies in core cycles (default 500; "
                       "implies --chips 8)",
                       args.linkLatencies, cli::integer<int>(0), true))
        .add(cli::list("--gpus", "LIST",
                       "add GPU baselines: v100-fp32, v100-fp16, a100-fp32, "
                       "a100-fp16",
                       args.gpus,
                       cli::named(parseGpu, "GPU",
                                  "v100-fp32, v100-fp16, a100-fp32, or "
                                  "a100-fp16"),
                       true));
    cli::addExecution(spec, args.exec,
                      "execution backends (chip,pod,gpu); "
                      "default: chip, plus pod when a pod axis is given, "
                      "plus gpu when --gpus is given",
                      std::numeric_limits<int>::min());
    spec.section("Search mode")
        .add(cli::value("--mode", "MODE",
                        "sweep (default), energy (best config under an "
                        "energy budget), tenant (multi-tenant time-sharing "
                        "serve over policy x config axes), duration (steps "
                        "completed per tenant/config in a fixed --wall-s "
                        "budget), or trace (open-loop arrival replay over "
                        "policy x config x load axes). Tenant and duration "
                        "serve one tenant per --models entry, with the "
                        "first --batches/--algos value and fair-share QoS "
                        "targets",
                        args.mode,
                        cli::named(modeFromName, "mode",
                                   "sweep, energy, tenant, duration, or "
                                   "trace")))
        .add(cli::value("--budget-j", "J",
                        "max joules per iteration (mode energy)",
                        args.budget.maxJoulesPerIteration, cli::positive()))
        .add(cli::value("--budget-w", "W",
                        "max engine TDP in watts, pod-wide for pods (mode "
                        "energy)",
                        args.budget.maxPowerW, cli::positive()));
    spec.section("Trace mode (--mode trace; shares the plan/result "
                 "caches)");
    cli::addTraceInput(spec, args.trace, false);
    spec.add(cli::list("--loads", "LIST",
                       "rate multipliers swept over the generator (default "
                       "1; --arrivals only)",
                       args.loads, cli::positive()))
        .add(cli::toggle("--admission",
                         "shed tenants whose aggregate QoS demand exceeds "
                         "capacity",
                         args.admission));
    spec.section("Tenant/duration modes")
        .add(cli::policyList("--policies",
                             "fifo,rr,prio,edf or 'all' (default all)",
                             args.policies, true))
        .add(cli::value("--steps", "N",
                        "steps per tenant in tenant mode, and per generated "
                        "session in trace mode when --arrivals sets no "
                        "steps (default 32)",
                        args.steps, cli::integer<std::uint64_t>(1)))
        .add(cli::value("--arrive-every", "S",
                        "stagger tenant arrivals (default 0)",
                        args.arriveEvery, cli::nonNegative()));
    cli::addServing(spec, args.serving);
    cli::addOutput(spec, args.out, "write CSV to PATH instead of stdout",
                   false);
    spec.add(cli::list("--pareto", "LIST",
                       "print the Pareto frontier over these objectives: "
                       "cycles, seconds, utilization, energy, dram_bytes, "
                       "power, area",
                       args.pareto,
                       cli::named(objectiveFromName, "objective",
                                  "cycles, seconds, utilization, energy, "
                                  "dram_bytes, power, or area"),
                       true))
        .add(cli::toggle("--no-speedup",
                         "skip the Fig.13-style speedup table",
                         args.speedupTable, false))
        .add({"--list-models", "", "print zoo model names and exit",
              [](const std::string &) {
                  for (const std::string &m : knownModels())
                      std::cout << m << "\n";
                  std::exit(0);
                  return std::string();
              }});
    cli::addObs(spec, args.obs);
    spec.rule([&args] {
        return args.mode == CliMode::kDuration && args.serving.wallSec <= 0.0
                   ? "--mode duration needs --wall-s"
                   : "";
    });
    spec.rule([&args] {
        return args.mode == CliMode::kTrace && !args.trace.any()
                   ? "--mode trace needs --arrivals or --trace"
                   : "";
    });
    spec.rule([&args] {
        return !args.trace.tracePath.empty() &&
                       (args.loads.size() != 1 || args.loads[0] != 1.0)
                   ? "--loads scales the --arrivals generator; recorded "
                     "traces replay as-is"
                   : "";
    });
    return spec;
}

bool
hasPodAxis(const Args &args)
{
    return !args.chips.empty() || !args.iciGbs.empty() ||
           !args.linkLatencies.empty();
}

/** The pod shape axis: chips x ici x link latency, unspecified axes
 *  falling back to the MultiChipConfig defaults (8 chips, TPUv3-class
 *  links). */
std::vector<MultiChipConfig>
podShapes(const Args &args)
{
    const MultiChipConfig defaults;
    const std::vector<int> chip_axis =
        args.chips.empty() ? std::vector<int>{defaults.numChips}
                           : args.chips;
    const std::vector<double> ici_axis =
        args.iciGbs.empty() ? std::vector<double>{defaults.interconnectGBs}
                            : args.iciGbs;
    const std::vector<int> lat_axis =
        args.linkLatencies.empty()
            ? std::vector<int>{int(defaults.linkLatencyCycles)}
            : args.linkLatencies;
    std::vector<MultiChipConfig> shapes;
    for (int n : chip_axis)
        for (double ici : ici_axis)
            for (int lat : lat_axis) {
                MultiChipConfig pod;
                pod.numChips = n;
                pod.interconnectGBs = ici;
                pod.linkLatencyCycles = Cycles(lat);
                shapes.push_back(pod);
            }
    return shapes;
}

SweepSpec
buildSpec(const Args &args)
{
    SweepSpec spec;
    for (Dataflow df : args.dataflows)
        for (bool ppu : args.ppus)
            spec.configs.push_back(presetConfig(df, ppu));
    spec.models = args.models;
    spec.modelScales = args.scales;
    spec.algorithms = args.algos;
    spec.batches = args.batches;
    spec.microbatches = args.microbatches;

    // The backend axis: the --backends list, or (without the flag)
    // chip plus whatever backends the pod/GPU axes imply. The pod/GPU
    // axis decisions below and the speedup-table gating read it.
    spec.backends = args.exec.backends;
    if (spec.backends.empty()) {
        spec.backends = {SweepBackend::kSingleChip};
        if (hasPodAxis(args))
            spec.backends.push_back(SweepBackend::kMultiChip);
        if (!args.gpus.empty())
            spec.backends.push_back(SweepBackend::kGpu);
    }
    const auto has_backend = [&](SweepBackend b) {
        return std::find(spec.backends.begin(), spec.backends.end(),
                         b) != spec.backends.end();
    };
    // An explicit --backends list wins over implied axes, but never
    // silently: a sweep missing points the user spelled out reads as
    // complete when it is not.
    if (!args.exec.backends.empty()) {
        if (!has_backend(SweepBackend::kMultiChip) && hasPodAxis(args))
            std::cerr << "diva_sweep: warning: --chips/--ici-gbs/"
                         "--link-lat ignored ('pod' is not in "
                         "--backends)\n";
        if (!has_backend(SweepBackend::kGpu) && !args.gpus.empty())
            std::cerr << "diva_sweep: warning: --gpus ignored ('gpu' "
                         "is not in --backends)\n";
    }

    if (has_backend(SweepBackend::kMultiChip))
        spec.pods = podShapes(args);
    if (has_backend(SweepBackend::kGpu))
        // --backends gpu without --gpus sweeps the paper's four
        // design points.
        spec.gpus = args.gpus.empty()
                        ? std::vector<GpuConfig>{GpuConfig::v100Fp32(),
                                                 GpuConfig::v100Fp16(),
                                                 GpuConfig::a100Fp32(),
                                                 GpuConfig::a100Fp16()}
                        : args.gpus;
    return spec;
}

/** Fig.13-style table: per workload row, speedup of every design point
 *  over the WS baseline swept up front. */
void
printSpeedupTable(std::ostream &os,
                  const std::vector<ScenarioResult> &baseline,
                  const std::vector<ScenarioResult> &results)
{
    // Workload key -> WS cycles.
    auto workloadKey = [](const ScenarioResult &r) {
        std::ostringstream oss;
        oss << r.scenario.model << '|' << r.scenario.modelScale << '|'
            << algorithmName(r.scenario.algorithm) << '|'
            << r.resolvedBatch << '|' << r.scenario.microbatch;
        return oss.str();
    };
    std::map<std::string, Cycles> ws;
    for (const ScenarioResult &r : baseline)
        if (r.ok())
            ws[workloadKey(r)] = r.cycles;

    // Column per design point, in first-seen order.
    std::vector<std::string> cfgs;
    for (const ScenarioResult &r : results) {
        if (r.scenario.backend != SweepBackend::kSingleChip)
            continue;
        const std::string &name = r.scenario.config.name;
        if (std::find(cfgs.begin(), cfgs.end(), name) == cfgs.end())
            cfgs.push_back(name);
    }

    std::vector<std::string> header = {"model", "algorithm", "batch"};
    for (const std::string &c : cfgs)
        header.push_back(c + " vs WS");
    TextTable table(header);

    std::map<std::string, std::map<std::string, double>> rows;
    std::vector<std::string> row_order;
    for (const ScenarioResult &r : results) {
        if (!r.ok() || r.scenario.backend != SweepBackend::kSingleChip)
            continue;
        const auto it = ws.find(workloadKey(r));
        if (it == ws.end() || r.cycles == 0)
            continue;
        const std::string key = workloadKey(r);
        if (!rows.count(key))
            row_order.push_back(key);
        rows[key][r.scenario.config.name] =
            double(it->second) / double(r.cycles);
    }
    for (const std::string &key : row_order) {
        std::stringstream ss(key);
        std::string model, scale, algo, batch, microbatch;
        std::getline(ss, model, '|');
        std::getline(ss, scale, '|');
        std::getline(ss, algo, '|');
        std::getline(ss, batch, '|');
        std::getline(ss, microbatch, '|');
        std::vector<std::string> cells = {
            scale == "0" ? model : model + "@" + scale, algo, batch};
        for (const std::string &c : cfgs) {
            const auto it = rows[key].find(c);
            cells.push_back(it == rows[key].end()
                                ? std::string("-")
                                : TextTable::fmtX(it->second));
        }
        table.addRow(cells);
    }
    os << "=== speedup vs Systolic-WS (Fig. 13 protocol) ===\n";
    table.print(os);
}

void
printPareto(std::ostream &os, const std::vector<ScenarioResult> &results,
            const std::vector<Objective> &objectives)
{
    const std::vector<std::size_t> frontier =
        paretoFrontier(results, objectives);
    std::vector<std::string> header = {"scenario"};
    for (Objective o : objectives)
        header.push_back(objectiveName(o));
    TextTable table(header);
    for (std::size_t i : frontier) {
        std::vector<std::string> cells = {results[i].scenario.label()};
        for (Objective o : objectives) {
            const double v = objectiveValue(results[i], o);
            const bool integral = o == Objective::kCycles ||
                                  o == Objective::kDramBytes;
            cells.push_back(integral
                                ? std::to_string(std::uint64_t(v))
                                : formatDouble(v));
        }
        table.addRow(cells);
    }
    os << "=== Pareto frontier (" << frontier.size() << " of "
       << results.size() << " scenarios) ===\n";
    table.print(os);
}

/** Energy-constrained search report: the best-throughput config under
 *  the budget plus the feasible latency/energy trade-off curve. */
void
printEnergySearch(std::ostream &os,
                  const std::vector<ScenarioResult> &results,
                  const EnergyBudget &budget)
{
    const EnergySearchResult search =
        energyConstrainedSearch(results, budget);

    os << "=== energy-constrained search ===\n";
    os << "budget:";
    if (std::isfinite(budget.maxJoulesPerIteration))
        os << " <= " << formatDouble(budget.maxJoulesPerIteration)
           << " J/iteration";
    if (std::isfinite(budget.maxPowerW))
        os << " <= " << formatDouble(budget.maxPowerW) << " W";
    if (!std::isfinite(budget.maxJoulesPerIteration) &&
        !std::isfinite(budget.maxPowerW))
        os << " none (pass --budget-j and/or --budget-w)";
    os << "\nfeasible: " << search.feasible.size() << " of "
       << results.size() << " scenarios\n";

    if (!search.best) {
        os << "best: none (no successful scenario fits the budget)\n";
        return;
    }
    const ScenarioResult &best = results[*search.best];
    os << "best: " << best.scenario.label() << "\n"
       << "  throughput: "
       << formatDouble(throughputExamplesPerSec(best)) << " examples/s"
       << "  seconds: " << formatDouble(best.seconds)
       << "  energy_j: " << formatDouble(best.energyJ)
       << "  power_w: " << formatDouble(best.enginePowerW) << "\n";

    TextTable table(
        {"scenario", "examples/s", "seconds", "energy_j", "power_w"});
    for (std::size_t i : search.frontier)
        table.addRow({results[i].scenario.label(),
                      formatDouble(throughputExamplesPerSec(results[i])),
                      formatDouble(results[i].seconds),
                      formatDouble(results[i].energyJ),
                      formatDouble(results[i].enginePowerW)});
    os << "feasible Pareto frontier (seconds vs energy, "
       << search.frontier.size() << " scenarios):\n";
    table.print(os);
}

/** One point of the serve-platform axis. */
struct Platform
{
    AcceleratorConfig config;
    int chips = 1;
    MultiChipConfig pod;
};

/**
 * Platform axis shared by the tenant/duration/trace modes: every
 * valid (dataflow, ppu) design point on one chip, plus every pod
 * shape when a pod axis was given. Empty (after a stderr message)
 * when no design point is valid.
 */
std::vector<Platform>
platformAxis(const Args &args)
{
    std::vector<Platform> platforms;
    for (Dataflow df : args.dataflows)
        for (bool ppu : args.ppus) {
            const AcceleratorConfig cfg = presetConfig(df, ppu);
            if (!cfg.validationError().empty())
                continue; // e.g. WS+PPU, same skip rule as the sweep
            platforms.push_back({cfg, 1, {}});
        }
    if (platforms.empty()) {
        std::cerr << "diva_sweep: no valid accelerator design points\n";
        return platforms;
    }
    if (hasPodAxis(args)) {
        const std::size_t single_chip = platforms.size();
        for (std::size_t p = 0; p < single_chip; ++p)
            for (const MultiChipConfig &shape : podShapes(args)) {
                // chips=1 has no interconnect and is already covered
                // by the single-chip platforms above.
                if (shape.numChips <= 1)
                    continue;
                Platform pod = platforms[p];
                pod.chips = shape.numChips;
                pod.pod = shape;
                platforms.push_back(pod);
            }
    }
    return platforms;
}

/** Emit serves to --csv/--json (or stdout); false on I/O failure. */
bool
emitServes(const Args &args, const std::vector<ServeResult> &serves)
{
    obs::ScopedPhase emit_phase("emit");
    return cli::emitTo(kTool, args.out.csvPath, true,
                       [&](std::ostream &os) {
                           writeServeCsv(os, serves);
                       }) &&
           cli::emitTo(kTool, args.out.jsonPath, false,
                       [&](std::ostream &os) {
                           writeServeJson(os, serves);
                       });
}

/**
 * Tenant / duration modes: one tenant per --models entry, fair-share
 * QoS targets, served under every policy on every valid accelerator
 * design point (plus any pod axis points). The per-tenant isolated
 * costs run through the shared SweepRunner, so they are parallel,
 * deduplicated across policies, and disk-cacheable like any other
 * scenario.
 */
int
runTenantModes(const Args &args, SweepRunner &runner)
{
    const bool duration = args.mode == CliMode::kDuration;

    TenantWorkload mix;
    {
        std::ostringstream oss;
        oss << (duration ? "duration-" : "tenant-") << args.models.size();
        mix.name = oss.str();
    }
    for (std::size_t i = 0; i < args.models.size(); ++i) {
        TenantJob job;
        job.model = args.models[i];
        std::ostringstream name;
        name << "t" << i << ":" << job.model;
        job.name = name.str();
        job.batch = args.batches.front();
        job.algorithm = args.algos.front();
        job.modelScale = args.scales.front();
        job.microbatch = args.microbatches.front();
        job.steps = duration ? 0 : args.steps;
        job.arrivalSec = args.arriveEvery * double(i);
        job.priority = int(i % 3);
        mix.jobs.push_back(std::move(job));
    }

    const std::vector<Platform> platforms = platformAxis(args);
    if (platforms.empty())
        return 1;

    std::vector<ServeResult> serves;
    std::size_t failures = 0;
    int cell = 0;
    for (const Platform &p : platforms)
        for (SchedPolicy policy : args.policies) {
            ServeSpec spec;
            spec.workload = mix;
            spec.config = p.config;
            spec.chips = p.chips;
            spec.pod = p.pod;
            spec.backends = args.exec.backends;
            spec.policy = policy;
            spec.opts.quantumIters = args.serving.quantum;
            spec.opts.wallLimitSec = args.serving.wallSec;
            spec.opts.autoQosFairShare = true;
            // One telemetry bundle across all cells; the serve loop
            // prefixes its series "serve.<policy>.", and per-tenant
            // names embed the model, so cells never collide.
            spec.opts.telemetry = args.obs.telemetry.get();
            // One track per (platform, policy) cell: each serve loop
            // is sequential, so every track has a single writer.
            if (args.obs.sink)
                spec.opts.traceTrack = args.obs.sink->track(
                    cell++, p.config.name + " " + policyName(policy));
            if (!args.exec.quiet)
                std::cerr << "serving " << mix.jobs.size()
                          << " tenant(s) under " << policyName(policy)
                          << " on " << p.config.name
                          << (p.chips > 1
                                  ? " x" + std::to_string(p.chips)
                                  : "")
                          << "...\n";
            ServeResult r = simulateServe(spec, runner);
            if (!r.ok()) {
                std::cerr << "diva_sweep: " << policyName(policy)
                          << " on " << p.config.name << ": " << r.error
                          << "\n";
                ++failures;
            }
            serves.push_back(std::move(r));
        }

    if (!emitServes(args, serves))
        return 1;

    // Policy comparison per platform: the serve-mode counterpart of
    // the Fig.13 speedup table (cache accounting stays on stderr so
    // stdout is a pure function of the serve specs).
    std::cout << "\n=== " << (duration ? "duration" : "tenant")
              << " serve summary ===\n"
              << "serves: " << serves.size() << " ("
              << platforms.size() << " platform(s) x "
              << args.policies.size() << " policy(ies)), tenants per "
              << "serve: " << mix.jobs.size() << "\n"
              << "failures: " << failures << "\n";
    TextTable table({"config", "chips", "policy",
                     duration ? "steps_done" : "makespan_s",
                     "mean_qos_pct", "switches", "switch_s",
                     "energy_j"});
    for (const ServeResult &s : serves) {
        if (!s.ok())
            continue;
        std::uint64_t total_steps = 0;
        for (const TenantMetrics &t : s.tenants)
            total_steps += t.stepsDone;
        table.addRow({s.configName, std::to_string(s.chips),
                      policyName(s.policy),
                      duration ? std::to_string(total_steps)
                               : formatDouble(s.makespanSec),
                      formatDouble(s.meanQosAttainmentPct),
                      std::to_string(s.contextSwitches),
                      formatDouble(s.switchSec),
                      formatDouble(s.totalEnergyJ)});
    }
    table.print(std::cout);
    return failures == 0 ? 0 : 2;
}

/**
 * Trace mode: open-loop arrival replay swept over policy x config
 * (x pod shape) x load. Loads scale the --arrivals generator's rate
 * (same seed, so a load sweep is an apples-to-apples burst-intensity
 * study); a recorded --trace file replays as-is. Isolated costs run
 * through the shared SweepRunner, so every (model, batch, algorithm)
 * prices once across the whole sweep and lands in the disk cache.
 */
int
runTraceMode(const Args &args, SweepRunner &runner)
{
    // Resolve the traces of the load axis up front so a bad spec or
    // file fails before any simulation.
    std::vector<ArrivalTrace> traces;
    for (double load : args.loads) {
        std::optional<ArrivalTrace> t = cli::resolveTrace(
            kTool, args.trace, [&](TraceGenSpec &gen) {
                gen.ratePerSec *= load;
                if (!gen.stepsSet)
                    gen.steps = args.steps;
            });
        if (!t)
            return 1;
        traces.push_back(std::move(*t));
    }

    const std::vector<Platform> platforms = platformAxis(args);
    if (platforms.empty())
        return 1;

    AdmissionOptions admission;
    admission.utilizationCap = args.serving.admissionCap;

    std::vector<ServeResult> serves;
    std::size_t failures = 0;
    int cell = 0;
    for (const ArrivalTrace &trace : traces) {
        // One ReplaySpec per trace: the (possibly large) session list
        // is copied in once, and only the platform/policy fields
        // change per cell.
        ReplaySpec rs;
        rs.trace = trace;
        rs.backends = args.exec.backends;
        rs.opts.quantumIters = args.serving.quantum;
        rs.opts.wallLimitSec = args.serving.wallSec;
        // Shared telemetry bundle: replay cells run sequentially and
        // the serve loop prefixes its series "serve.<policy>.".
        rs.opts.telemetry = args.obs.telemetry.get();
        rs.admission = args.admission;
        rs.admissionOpts = admission;
        for (const Platform &p : platforms)
            for (SchedPolicy policy : args.policies) {
                rs.config = p.config;
                rs.chips = p.chips;
                rs.pod = p.pod;
                rs.policy = policy;
                // One track per replay cell (single-writer: replays
                // run sequentially here).
                if (args.obs.sink)
                    rs.opts.traceTrack = args.obs.sink->track(
                        cell++, trace.name + " " + p.config.name + " " +
                                    policyName(policy));
                if (!args.exec.quiet)
                    std::cerr << "replaying '" << trace.name << "' ("
                              << trace.jobs.size() << " session(s)) "
                              << "under " << policyName(policy)
                              << " on " << p.config.name
                              << (p.chips > 1
                                      ? " x" + std::to_string(p.chips)
                                      : "")
                              << "...\n";
                ServeResult r = replayTrace(rs, runner);
                if (!r.ok()) {
                    std::cerr << "diva_sweep: " << policyName(policy)
                              << " on " << p.config.name << ": "
                              << r.error << "\n";
                    ++failures;
                }
                serves.push_back(std::move(r));
            }
    }

    if (!emitServes(args, serves))
        return 1;

    // Tail-latency comparison across the axes (cache accounting stays
    // on stderr so stdout is a pure function of the replay specs).
    std::cout << "\n=== trace serve summary ===\n"
              << "replays: " << serves.size() << " (" << traces.size()
              << " trace(s) x " << platforms.size()
              << " platform(s) x " << args.policies.size()
              << " policy(ies))\n"
              << "failures: " << failures << "\n";
    TextTable table({"trace", "config", "chips", "policy", "admitted",
                     "mean_qos_pct", "lat_p50_s", "lat_p95_s",
                     "lat_p99_s", "switches"});
    for (const ServeResult &s : serves) {
        if (!s.ok())
            continue;
        const std::size_t admitted = s.admittedCount();
        table.addRow({s.workloadName, s.configName,
                      std::to_string(s.chips), policyName(s.policy),
                      std::to_string(admitted) + "/" +
                          std::to_string(s.tenants.size()),
                      formatDouble(s.meanQosAttainmentPct),
                      formatDouble(s.aggStepLatency.p50Sec),
                      formatDouble(s.aggStepLatency.p95Sec),
                      formatDouble(s.aggStepLatency.p99Sec),
                      std::to_string(s.contextSwitches)});
    }
    table.print(std::cout);
    return failures == 0 ? 0 : 2;
}

int
run(int argc, char **argv)
{
    Args args;
    if (!flagSpec(args).parse(argc, argv) || !args.obs.activate())
        return 1;

    SweepOptions opts;
    opts.threads = args.exec.threads;
    opts.cacheDir = args.exec.cacheDir;
    if (!args.exec.quiet)
        opts.progress = [](std::size_t done, std::size_t total,
                           const Scenario &s) {
            std::cerr << "[" << done << "/" << total << "] "
                      << s.label() << "\n";
        };
    SweepRunner runner(opts);
    if (!args.exec.quiet && runner.diskCache()) {
        const DiskCache &dc = *runner.diskCache();
        std::cerr << "disk cache: " << dc.size() << " entries in "
                  << dc.filePath();
        if (dc.corruptLinesSkipped())
            std::cerr << " (" << dc.corruptLinesSkipped()
                      << " corrupt lines skipped)";
        std::cerr << "\n";
    }

    if (args.mode == CliMode::kTenant || args.mode == CliMode::kDuration ||
        args.mode == CliMode::kTrace) {
        const int rc = args.mode == CliMode::kTrace
                           ? runTraceMode(args, runner)
                           : runTenantModes(args, runner);
        if (!args.obs.finish())
            return rc != 0 ? rc : 1;
        return rc;
    }

    const SweepSpec spec = buildSpec(args);
    const SweepSpec::Expansion expansion = spec.expand();

    // Baseline pass: the WS design point over the same workload axes,
    // so every speedup denominator exists. The main sweep re-meets
    // these scenarios and takes them from the cache.
    // The Fig.13 speedup table is sweep-mode furniture; energy mode
    // reports the budget search instead, and a --backends axis
    // without chip scenarios has no speedup columns to fill.
    const bool speedup_table =
        args.speedupTable && args.mode == CliMode::kSweep &&
        std::find(spec.backends.begin(), spec.backends.end(),
                  SweepBackend::kSingleChip) != spec.backends.end();
    SweepReport baseline;
    if (speedup_table) {
        SweepSpec base = spec;
        base.configs = {tpuV3Ws()};
        base.backends = {SweepBackend::kSingleChip};
        base.pods.clear();
        base.gpus.clear();
        if (!args.exec.quiet)
            std::cerr << "sweeping WS baseline...\n";
        baseline = runner.run(base);
    }

    if (!args.exec.quiet)
        std::cerr << "sweeping " << expansion.scenarios.size()
                  << " scenarios on " << args.exec.threads << " thread(s)...\n";
    const SweepReport report = runner.run(expansion.scenarios);

    // Sweep scenarios have no arrival clock, so the trace lays the
    // per-iteration costs end to end on a synthetic time axis in
    // input (= output CSV) order: span k starts where span k-1 ends.
    if (args.obs.sink) {
        obs::TraceTrack *track = args.obs.sink->track(0, "scenarios");
        double t = 0.0;
        for (const ScenarioResult &r : report.results) {
            if (!r.ok())
                continue;
            track->span(t, t + r.seconds, r.scenario.label(),
                        "scenario");
            t += r.seconds;
        }
    }

    {
        obs::ScopedPhase emit_phase("emit");
        if (!cli::emitTo(kTool, args.out.csvPath, true,
                         [&](std::ostream &os) { writeCsv(os, report); }) ||
            !cli::emitTo(kTool, args.out.jsonPath, false,
                         [&](std::ostream &os) { writeJson(os, report); }))
            return 1;
    }

    // The cache lines count every lookup this runner made: the WS
    // baseline pass (empty when skipped) and the main pass.
    std::cout << "\n=== sweep summary ===\n"
              << "scenarios: " << report.results.size() << " (cartesian "
              << expansion.rawCount << ", invalid skipped "
              << expansion.invalidSkipped << ", duplicates removed "
              << expansion.duplicatesRemoved << ")\n"
              << "cache: " << baseline.cacheHits + report.cacheHits
              << " hits, " << baseline.cacheMisses + report.cacheMisses
              << " misses\n"
              << "plan cache: " << baseline.planHits + report.planHits
              << " hits, " << baseline.planMisses + report.planMisses
              << " misses\n"
              << "failures: " << report.failures << "\n";

    const SweepSummary stats = summarizeResults(report.results);
    TextTable summary({"metric", "min", "median", "p95", "max"});
    auto statRow = [&](const char *name, const SummaryStats &s,
                       bool integral) {
        summary.addRow(
            {name,
             integral ? std::to_string(std::uint64_t(s.min))
                      : formatDouble(s.min),
             integral ? std::to_string(std::uint64_t(s.median))
                      : formatDouble(s.median),
             integral ? std::to_string(std::uint64_t(s.p95))
                      : formatDouble(s.p95),
             integral ? std::to_string(std::uint64_t(s.max))
                      : formatDouble(s.max)});
    };
    statRow("cycles", stats.cycles, true);
    statRow("utilization", stats.utilization, false);
    statRow("energy (J)", stats.energyJ, false);
    summary.print(std::cout);
    std::cout << "\n";

    if (speedup_table) {
        printSpeedupTable(std::cout, baseline.results, report.results);
        std::cout << "\n";
    }
    if (args.mode == CliMode::kEnergy) {
        printEnergySearch(std::cout, report.results, args.budget);
        std::cout << "\n";
    }
    if (!args.pareto.empty()) {
        printPareto(std::cout, report.results, args.pareto);
        std::cout << "\n";
    }
    if (!args.obs.finish())
        return report.failures == 0 ? 1 : 2;
    return report.failures == 0 ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::guardedMain(run, argc, argv);
}
