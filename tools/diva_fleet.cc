/**
 * @file
 * diva_fleet: datacenter-scale fleet simulator driver.
 *
 * Replays an arrival trace (generated with --arrivals or recorded with
 * --trace) across a fleet of N pods -- each an independent time-shared
 * serve instance, heterogeneous fleets mixing dataflows, chip counts
 * and interconnects via repeated --pod templates -- under a
 * cluster-level placement policy, optional tenant migration on load
 * skew, and an optional fleet energy budget, then reports per-pod and
 * per-tenant utilization, energy share, QoS attainment, migration
 * counts/costs and p50/p95/p99 step latency.
 *
 * Per-(pod type, tenant class) isolated costs are ordinary sweep
 * scenarios run through the sweep engine, so --threads parallelizes
 * them and --cache-dir shares the persistent result cache with
 * diva_sweep/diva_serve. All fleet output on stdout (or --csv /
 * --pod-csv / --json files) is a pure function of the spec: --threads
 * N and warm-cache reruns are byte-identical. Progress and cache
 * accounting go to stderr.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_parse.h"
#include "common/format.h"
#include "common/table.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "obs/profile.h"
#include "sweep/runner.h"

using namespace diva;

namespace
{

constexpr char kTool[] = "diva_fleet";

struct Args
{
    int pods = 8;
    std::vector<std::string> podSpecs;
    cli::TraceInput trace;
    PlacementKind placement = PlacementKind::kFirstFit;
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    bool rebalance = false;
    double rebalanceEvery = 0.0;
    double skew = 0.25;
    int maxMigrations = 64;
    double powerCapW = 0.0;
    double budgetJ = 0.0;
    double controlEvery = 0.0;
    double workingSet = 1.0;
    cli::Serving serving;
    cli::Execution exec;
    cli::Output out;
    std::string podCsvPath;
    bool jsonTenants = false;
    obs::CliObs obs;
};

cli::Spec
flagSpec(Args &args)
{
    cli::Spec spec(kTool);
    spec.section("Fleet shape")
        .add(cli::value("--pods", "N",
                        "N identical single-chip DiVa pods (default 8)",
                        args.pods, cli::integer<int>(1)))
        .add({"--pod", "SPEC",
              "add a pod group; SPEC is key=value pairs: df=WS|OS|DiVa, "
              "ppu=on|off, chips=N, count=N, ici-gbs=G, link-lat=C -- "
              "e.g. df=OS,chips=4,count=16. Repeat for a heterogeneous "
              "fleet (replaces --pods)",
              [&args](const std::string &v) {
                  args.podSpecs.push_back(v);
                  return std::string();
              }});
    spec.section("Arrival trace (open-loop replay drives the fleet)");
    cli::addTraceInput(spec, args.trace, true,
                       " (default diurnal:rate=4,horizon=16,seed=1)");
    spec.section("Cluster policy")
        .add(cli::value("--placement", "NAME",
                        "first-fit, load, or energy (default first-fit)",
                        args.placement,
                        cli::named(placementFromName, "placement",
                                   "first-fit, load, or energy")))
        .add(cli::value("--policy", "NAME",
                        "per-pod scheduler: fifo, rr, prio, or edf "
                        "(default rr)",
                        args.policy, cli::policyKind()))
        .add({"--rebalance-every", "S",
              "enable tenant migration between pods, checking load skew "
              "every S simulated seconds (0 = auto: an eighth of the "
              "trace span)",
              [&args](const std::string &v) {
                  args.rebalance = true;
                  return cli::nonNegative()("--rebalance-every", v,
                                            args.rebalanceEvery);
              }})
        .add(cli::value("--skew", "F",
                        "utilization gap that triggers migration "
                        "(default 0.25)",
                        args.skew, cli::positive()))
        .add(cli::value("--max-migrations", "N",
                        "migration cap per control round (default 64)",
                        args.maxMigrations, cli::integer<int>(1)));
    spec.section("Energy budget")
        .add(cli::value("--power-cap-w", "W",
                        "sustained fleet power cap in watts; low-priority "
                        "tenants preempt when the projected draw exceeds "
                        "it",
                        args.powerCapW, cli::positive()))
        .add(cli::value("--budget-j", "J",
                        "total joule budget for the whole run; a draining "
                        "budget throttles progressively",
                        args.budgetJ, cli::positive()))
        .add(cli::value("--control-every", "S",
                        "control-loop interval for budget/rebalance "
                        "decisions (overrides auto)",
                        args.controlEvery, cli::positive()));
    spec.section("Serving")
        .add(cli::value("--working-set", "F",
                        "fraction of SRAM a context switch or migration "
                        "moves, in (0, 1] (default 1)",
                        args.workingSet, cli::fraction()));
    cli::addServing(spec, args.serving);
    cli::addExecution(spec, args.exec,
                      "allowed isolated-cost backends (default: all)");
    cli::addOutput(spec, args.out,
                   "also write the per-tenant CSV (one row per session; "
                   "large traces make this big)",
                   true);
    spec.add(cli::output("--pod-csv", "PATH",
                         "write the per-pod CSV to PATH instead of stdout",
                         args.podCsvPath))
        .add(cli::toggle("--json-tenants",
                         "include every tenant in the JSON report",
                         args.jsonTenants));
    cli::addObs(spec, args.obs);
    return spec;
}

/** False after a "diva_fleet: ..." error on stderr. */
bool
buildFleetSpec(const Args &args, FleetSpec &spec)
{
    std::vector<std::vector<PodSpec>> groups;
    if (!args.podSpecs.empty()) {
        for (const std::string &text : args.podSpecs) {
            std::string err;
            const auto group = parsePodTemplate(text, &err);
            if (!group)
                return cli::fail(kTool, "--pod '" + text + "': " + err);
            groups.push_back(*group);
        }
    } else {
        groups.push_back(defaultPodGroup(args.pods));
    }
    spec = buildFleet(groups);
    spec.policy = args.policy;
    spec.placement = args.placement;
    spec.podDemandCap = args.serving.admissionCap;
    spec.rebalance.enabled = args.rebalance;
    spec.rebalance.skewThreshold = args.skew;
    spec.rebalance.maxPerRound = args.maxMigrations;
    spec.budget.powerCapW = args.powerCapW;
    spec.budget.totalJ = args.budgetJ;
    spec.controlIntervalSec = args.controlEvery > 0.0
                                  ? args.controlEvery
                                  : args.rebalanceEvery;
    spec.workingSetFraction = args.workingSet;
    spec.quantumIters = args.serving.quantum;
    spec.wallLimitSec = args.serving.wallSec;
    spec.backends = args.exec.backends;
    const std::string err = spec.validationError();
    if (!err.empty())
        return cli::fail(kTool, err);
    return true;
}

void
printSummary(std::ostream &os, const FleetResult &f)
{
    os << "\n=== fleet summary ===\n";
    TextTable run({"fleet", "trace", "policy", "placement", "placed",
                   "rejected", "steps", "makespan_s", "energy_j",
                   "migrations", "suspensions", "mean_qos_pct",
                   "lat_p50_s", "lat_p99_s"});
    run.addRow({f.fleetName, f.traceName, policyName(f.policy),
                placementName(f.placement),
                std::to_string(f.placedCount),
                std::to_string(f.rejectedCount),
                std::to_string(f.totalSteps),
                formatDouble(f.makespanSec),
                formatDouble(f.totalEnergyJ),
                std::to_string(f.migrations),
                std::to_string(f.suspensions),
                formatDouble(f.meanQosAttainmentPct),
                formatDouble(f.aggStepLatency.p50Sec),
                formatDouble(f.aggStepLatency.p99Sec)});
    run.print(os);

    os << "\n--- pods ---\n";
    TextTable table({"pod", "config", "chips", "placed", "in", "out",
                     "steps", "busy_s", "util", "energy_share",
                     "qos_pct", "p99_s"});
    for (const FleetPodReport &p : f.pods)
        table.addRow({p.name, p.configName, std::to_string(p.chips),
                      std::to_string(p.placed),
                      std::to_string(p.migratedIn),
                      std::to_string(p.migratedOut),
                      std::to_string(p.stepsDone),
                      formatDouble(p.busySec),
                      formatDouble(p.utilization),
                      formatDouble(p.energyShare),
                      formatDouble(p.meanQosAttainmentPct),
                      formatDouble(p.stepLatency.p99Sec)});
    table.print(os);
}

int
run(int argc, char **argv)
{
    Args args;
    if (!flagSpec(args).parse(argc, argv) || !args.obs.activate())
        return 1;

    FleetSpec spec;
    if (!buildFleetSpec(args, spec))
        return 1;

    const std::optional<ArrivalTrace> trace = cli::resolveTrace(
        kTool, args.trace, {}, "diurnal:rate=4,horizon=16,seed=1");
    if (!trace)
        return 1;

    SweepOptions opts;
    opts.threads = args.exec.threads;
    opts.cacheDir = args.exec.cacheDir;
    SweepRunner runner(opts);
    if (!args.exec.quiet && runner.diskCache())
        std::cerr << "disk cache: " << runner.diskCache()->size()
                  << " entries in " << runner.diskCache()->filePath()
                  << "\n";
    if (!args.exec.quiet)
        std::cerr << "replaying trace '" << trace->name << "' ("
                  << trace->jobs.size() << " sessions) on " << spec.name
                  << " under " << policyName(spec.policy) << "/"
                  << placementName(spec.placement)
                  << (spec.rebalance.enabled ? ", rebalance on" : "")
                  << (spec.budget.enabled() ? ", budget on" : "")
                  << "...\n";

    const FleetResult fleet = simulateFleet(
        spec, *trace, runner, args.exec.threads, args.obs.sink.get(),
        args.obs.telemetry.get());
    if (!fleet.ok())
        std::cerr << "diva_fleet: " << fleet.error << "\n";
    else if (!args.exec.quiet)
        std::cerr << "plan cache: " << fleet.planHits << " hits, "
                  << fleet.planMisses << " misses\n";

    {
        obs::ScopedPhase emitPhase("emit");
        if (!cli::emitTo(kTool, args.podCsvPath, true,
                         [&](std::ostream &os) {
                             writeFleetPodCsv(os, fleet);
                         }) ||
            !cli::emitTo(kTool, args.out.csvPath, false,
                         [&](std::ostream &os) {
                             writeFleetTenantCsv(os, fleet);
                         }) ||
            !cli::emitTo(kTool, args.out.jsonPath, false,
                         [&](std::ostream &os) {
                             writeFleetJson(os, fleet, args.jsonTenants);
                         }))
            return 1;
    }

    if (args.out.summary && fleet.ok())
        printSummary(std::cout, fleet);
    if (!args.obs.finish())
        return 1;
    return fleet.ok() ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::guardedMain(run, argc, argv);
}
