/**
 * @file
 * diva_serve: multi-tenant time-sharing serve simulator driver.
 *
 * Runs N tenant training jobs (generated with --tenants or spelled out
 * with repeated --tenant flags) time-sharing one accelerator (or pod)
 * under one or more scheduling policies, and reports per-tenant
 * achieved rate, slowdown vs. an isolated run, QoS attainment and
 * energy share plus the run-level context-switch bill.
 *
 * The per-tenant isolated iteration costs are ordinary sweep scenarios
 * run through the sweep engine, so --threads parallelizes them and
 * --cache-dir shares the persistent result cache with diva_sweep. All
 * serve output on stdout (or --csv/--json files) is a pure function of
 * the spec: --threads N and warm-cache reruns are byte-identical.
 * Progress and cache accounting go to stderr.
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arrivals/replay.h"
#include "cli_parse.h"
#include "common/format.h"
#include "common/table.h"
#include "obs/profile.h"
#include "sweep/runner.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

using namespace diva;

namespace
{

constexpr char kTool[] = "diva_serve";

struct Args
{
    int tenants = 3;
    std::vector<TenantJob> explicitTenants;
    std::uint64_t steps = 32;
    int batch = 8;
    double arriveEvery = 0.0;
    enum class QosMode { kAuto, kNone, kRate } qosMode = QosMode::kAuto;
    double qosRate = 0.0;
    cli::TraceInput trace;
    bool admission = false;
    std::vector<SchedPolicy> policies = {SchedPolicy::kRoundRobin};
    cli::Serving serving;
    Dataflow dataflow = Dataflow::kOuterProduct;
    bool ppu = true;
    int chips = 1;
    cli::Execution exec;
    cli::Output out;
    obs::CliObs obs;
};

/** "Steps not given in the spec": resolved to --steps after parsing,
 *  so --tenant and --steps may appear in any order. */
constexpr std::uint64_t kStepsUnset = ~std::uint64_t(0);

/** model[:batch[:qos_sps[:arrival_s[:prio[:steps[:depart_s]]]]]];
 *  "" on success, else the error message. */
std::string
parseTenantSpec(const std::string &spec, TenantJob &job)
{
    std::vector<std::string> f;
    std::stringstream ss(spec);
    for (std::string item; std::getline(ss, item, ':');)
        f.push_back(item);
    if (f.empty() || f.size() > 7 || f[0].empty())
        return "--tenant expects model[:batch[:qos_sps[:arrival_s"
               "[:prio[:steps[:depart_s]]]]]], got '" + spec + "'";
    job.model = f[0];
    job.steps = kStepsUnset;
    // Spec field i, parsed by `kind` into `dst` when present.
    auto field = [&]<class T>(std::size_t i, const char *name, T &dst,
                              cli::Kind<T> kind) {
        return i < f.size() ? kind(std::string("--tenant ") + name, f[i],
                                   dst)
                            : std::string();
    };
    for (const std::string &err :
         {field(1, "batch", job.batch,
                cli::orAuto(kAutoBatch, cli::integer<int>(1))),
          field(2, "qos_sps", job.qosStepsPerSec, cli::nonNegative()),
          field(3, "arrival_s", job.arrivalSec, cli::nonNegative()),
          field(4, "prio", job.priority, cli::integer<int>()),
          field(5, "steps", job.steps, cli::integer<std::uint64_t>(0)),
          field(6, "depart_s", job.departSec, cli::nonNegative())})
        if (!err.empty())
            return err + " in '" + spec + "'";
    return "";
}

cli::Spec
flagSpec(Args &args)
{
    cli::Spec spec(kTool);
    spec.section("Tenant mix")
        .add(cli::value("--tenants", "N",
                        "N generated tenants rotating through a fixed "
                        "model mix (default 3)",
                        args.tenants, cli::integer<int>(1)))
        .add({"--tenant", "SPEC",
              "add an explicit tenant; SPEC is model[:batch[:qos_sps"
              "[:arrival_s[:prio[:steps[:depart_s]]]]]], e.g. "
              "ResNet-50:32:2.5:0:1:64 (batch 'auto' = largest that "
              "fits; depart_s 0 = stays)",
              [&args](const std::string &v) {
                  TenantJob job;
                  std::string err = parseTenantSpec(v, job);
                  if (err.empty())
                      args.explicitTenants.push_back(std::move(job));
                  return err;
              }})
        .add(cli::value("--steps", "N",
                        "steps per generated tenant (default 32; 0 = "
                        "unbounded, needs --wall-s)",
                        args.steps, cli::integer<std::uint64_t>(0)))
        .add(cli::value("--batch", "N|auto",
                        "batch per generated tenant (default 8)",
                        args.batch,
                        cli::orAuto(kAutoBatch, cli::integer<int>(1))))
        .add(cli::value("--arrive-every", "S",
                        "stagger generated arrivals (default 0)",
                        args.arriveEvery, cli::nonNegative()))
        .add({"--qos", "auto|none|R",
              "generated tenants' steps/sec target: auto = fair share "
              "of the isolated rate (default), none, or an explicit rate",
              [&args](const std::string &v) -> std::string {
                  if (v == "auto" || v == "none") {
                      args.qosMode = v == "auto" ? Args::QosMode::kAuto
                                                 : Args::QosMode::kNone;
                      return "";
                  }
                  const std::optional<double> rate = parseDoubleText(v);
                  if (!rate || *rate <= 0.0)
                      return "--qos takes auto, none, or a rate > 0; "
                             "got '" + v + "'";
                  args.qosMode = Args::QosMode::kRate;
                  args.qosRate = *rate;
                  return "";
              }});
    spec.section("Arrival traces (replace the static mix; open-loop "
                 "replay)");
    cli::addTraceInput(spec, args.trace, true);
    spec.add(cli::toggle("--admission",
                         "run the QoS admission controller: shed tenants "
                         "whose aggregate demand exceeds capacity (also "
                         "works without a trace)",
                         args.admission));
    spec.section("Scheduling")
        .add(cli::policyList("--policy",
                             "fifo, rr, prio, or edf (default rr)",
                             args.policies, false))
        .add(cli::policyList("--policies",
                             "compare several policies in one run (or "
                             "'all')",
                             args.policies, true));
    cli::addServing(spec, args.serving);
    spec.section("Platform")
        .add(cli::value("--dataflow", "NAME",
                        "WS, OS, or DiVa (default DiVa)", args.dataflow,
                        cli::dataflowKind()))
        .add(cli::value("--ppu", "on|off",
                        "post-processing unit (default on; WS is always "
                        "off)",
                        args.ppu, cli::onOffKind()))
        .add(cli::value("--chips", "N",
                        "time-share a data-parallel pod of N chips "
                        "(default 1)",
                        args.chips, cli::integer<int>(1)));
    cli::addExecution(spec, args.exec,
                      "allowed isolated-cost backends "
                      "(default: all); the serve prices tenants on 'pod' "
                      "when --chips > 1, else 'chip'");
    cli::addOutput(spec, args.out,
                   "write per-tenant CSV to PATH instead of stdout", true);
    cli::addObs(spec, args.obs);
    spec.rule([&args] {
        return args.trace.any() && !args.explicitTenants.empty()
                   ? "--tenant cannot be combined with --arrivals/--trace "
                     "(the trace is the mix)"
                   : "";
    });
    spec.rule([&args] {
        return !args.trace.saveTracePath.empty() && !args.trace.any()
                   ? "--save-trace needs --arrivals or --trace"
                   : "";
    });
    spec.rule([&args] {
        return args.steps == 0 && args.serving.wallSec <= 0.0 &&
                       args.explicitTenants.empty() && !args.trace.any()
                   ? "--steps 0 (unbounded) needs --wall-s"
                   : "";
    });
    return spec;
}

AcceleratorConfig
platformConfig(const Args &args)
{
    const bool ws = args.dataflow == Dataflow::kWeightStationary;
    if (ws && args.ppu)
        DIVA_WARN("WS has no PPU datapath; running with --ppu off");
    return presetConfig(args.dataflow, args.ppu && !ws);
}

TenantWorkload
buildWorkload(const Args &args)
{
    if (!args.explicitTenants.empty()) {
        TenantWorkload mix;
        std::ostringstream oss;
        oss << "custom-" << args.explicitTenants.size();
        mix.name = oss.str();
        for (std::size_t i = 0; i < args.explicitTenants.size(); ++i) {
            TenantJob job = args.explicitTenants[i];
            if (job.steps == kStepsUnset)
                job.steps = args.steps;
            std::ostringstream name;
            name << "t" << i << ":" << job.model;
            job.name = name.str();
            mix.jobs.push_back(std::move(job));
        }
        return mix;
    }
    TenantWorkload mix = defaultWorkload(args.tenants, args.steps,
                                         args.batch, args.arriveEvery);
    if (args.qosMode == Args::QosMode::kRate)
        for (TenantJob &job : mix.jobs)
            job.qosStepsPerSec = args.qosRate;
    return mix;
}

void
printSummary(std::ostream &os, const std::vector<ServeResult> &serves)
{
    os << "\n=== serve summary ===\n";
    TextTable runs({"policy", "makespan_s", "energy_j", "switches",
                    "switch_s", "mean_qos_pct", "lat_p50_s",
                    "lat_p99_s", "admitted"});
    for (const ServeResult &s : serves) {
        if (!s.ok()) {
            runs.addRow({policyName(s.policy), "-", "-", "-", "-", "-",
                         "-", "-", "error: " + s.error});
            continue;
        }
        const std::size_t admitted = s.admittedCount();
        runs.addRow({policyName(s.policy), formatDouble(s.makespanSec),
                     formatDouble(s.totalEnergyJ),
                     std::to_string(s.contextSwitches),
                     formatDouble(s.switchSec),
                     formatDouble(s.meanQosAttainmentPct),
                     formatDouble(s.aggStepLatency.p50Sec),
                     formatDouble(s.aggStepLatency.p99Sec),
                     std::to_string(admitted) + "/" +
                         std::to_string(s.tenants.size())});
    }
    runs.print(os);

    for (const ServeResult &s : serves) {
        if (!s.ok())
            continue;
        os << "\n--- policy " << policyName(s.policy) << " ("
           << s.configName;
        if (s.chips > 1)
            os << " x" << s.chips;
        os << ") ---\n";
        TextTable table({"tenant", "adm", "steps", "done",
                         "achieved/s", "isolated/s", "slowdown",
                         "p50_s", "p99_s", "qos_pct", "energy_share",
                         "switches"});
        for (const TenantMetrics &t : s.tenants)
            table.addRow({t.job.name, t.admitted ? "y" : "n",
                          std::to_string(t.job.steps),
                          std::to_string(t.stepsDone),
                          formatDouble(t.achievedStepsPerSec),
                          formatDouble(t.isolatedStepsPerSec),
                          formatDouble(t.slowdown),
                          formatDouble(t.stepLatency.p50Sec),
                          formatDouble(t.stepLatency.p99Sec),
                          formatDouble(t.qosAttainmentPct),
                          formatDouble(t.energyShare),
                          std::to_string(t.switchesIn)});
        table.print(os);
    }
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
    SweepRunner runner(opts);
    if (!args.exec.quiet && runner.diskCache())
        std::cerr << "disk cache: " << runner.diskCache()->size()
                  << " entries in " << runner.diskCache()->filePath()
                  << "\n";

    // Trace replay: the arrival stream (generated or recorded)
    // replaces the static mix and drives the serve loop open-loop.
    const bool trace_mode = args.trace.any();
    ArrivalTrace trace;
    if (trace_mode) {
        // Spec keys win; otherwise the mix-level flags fill the
        // per-session template.
        std::optional<ArrivalTrace> t = cli::resolveTrace(
            kTool, args.trace, [&](TraceGenSpec &gen) {
                if (!gen.stepsSet)
                    gen.steps = args.steps;
                if (!gen.batchSet)
                    gen.batch = args.batch;
                if (!gen.qosSet && args.qosMode == Args::QosMode::kRate)
                    gen.qosStepsPerSec = args.qosRate;
            });
        if (!t)
            return 1;
        trace = std::move(*t);
    }

    ServeSpec spec;
    spec.workload = buildWorkload(args);
    spec.config = platformConfig(args);
    spec.chips = args.chips;
    spec.backends = args.exec.backends;
    spec.policy = args.policies.front();
    spec.opts.quantumIters = args.serving.quantum;
    spec.opts.wallLimitSec = args.serving.wallSec;
    spec.opts.autoQosFairShare =
        !trace_mode && args.explicitTenants.empty() &&
        args.qosMode == Args::QosMode::kAuto;
    // One telemetry bundle across all policy runs; the serve loop
    // prefixes its series "serve.<policy>.", so runs never collide.
    spec.opts.telemetry = args.obs.telemetry.get();

    AdmissionOptions admission;
    admission.utilizationCap = args.serving.admissionCap;

    std::vector<ServeResult> serves;
    bool any_error = false;
    int policy_idx = 0;
    for (SchedPolicy policy : args.policies) {
        spec.policy = policy;
        // One track per policy run: the serve loop is sequential, so
        // each track keeps a single writer.
        if (args.obs.sink)
            spec.opts.traceTrack = args.obs.sink->track(
                policy_idx++, std::string("serve ") + policyName(policy));
        if (!args.exec.quiet)
            std::cerr << (trace_mode ? "replaying trace '" + trace.name +
                                           "', "
                                     : "serving ")
                      << (trace_mode ? trace.jobs.size()
                                     : spec.workload.jobs.size())
                      << " tenant(s) under " << policyName(policy)
                      << " on " << spec.config.name
                      << (args.chips > 1
                              ? " x" + std::to_string(args.chips)
                              : "")
                      << (args.admission ? ", admission on" : "")
                      << "...\n";
        ServeResult r;
        if (trace_mode) {
            ReplaySpec rs;
            rs.trace = trace;
            rs.config = spec.config;
            rs.chips = spec.chips;
            rs.policy = policy;
            rs.backends = spec.backends;
            rs.opts = spec.opts;
            rs.admission = args.admission;
            rs.admissionOpts = admission;
            r = replayTrace(rs, runner);
        } else if (args.admission) {
            r = serveWithAdmission(spec, admission, runner);
        } else {
            r = simulateServe(spec, runner);
        }
        if (!r.ok()) {
            std::cerr << "diva_serve: " << policyName(policy) << ": "
                      << r.error << "\n";
            any_error = true;
        }
        serves.push_back(std::move(r));
    }

    {
        obs::ScopedPhase emit_phase("emit");
        if (!cli::emitTo(kTool, args.out.csvPath, true,
                         [&](std::ostream &os) {
                             writeServeCsv(os, serves);
                         }) ||
            !cli::emitTo(kTool, args.out.jsonPath, false,
                         [&](std::ostream &os) {
                             writeServeJson(os, serves);
                         }))
            return 1;
        if (args.out.summary)
            printSummary(std::cout, serves);
    }
    if (!args.obs.finish())
        return 1;
    return any_error ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::guardedMain(run, argc, argv);
}
