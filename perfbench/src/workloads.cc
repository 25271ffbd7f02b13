#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "arch/accelerator_config.h"
#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "arrivals/trace.h"
#include "common/format.h"
#include "common/rng.h"
#include "fleet/emit.h"
#include "obs/slo.h"
#include "sweep/aggregate.h"
#include "sweep/emit.h"
#include "tenant/emit.h"
#include "tenant/serve.h"

namespace perfbench
{

using namespace diva;

namespace
{

// ---------------------------------------------------------------- sizes
// Chosen so one iteration takes roughly 0.3-1 s on a 4-core x86 box:
// long enough to time, short enough for dozens per run, so a run's
// median iteration sums up the host over the whole run.

/** Sessions in each fleet trace. */
constexpr int kFleetSessions = 100000;

/** Sessions in the serve_policies trace (half best effort, half QoS). */
constexpr int kServeSessions = 2000;

/** Fleet shape: this many DiVa pods and this many OS pods. */
constexpr int kPodsPerType = 32;

/** Control interval of the fleets' rebalance loop, simulated seconds. */
constexpr double kControlSec = 600.0;

/** Bound on the busiest pod's share of steps in fleet_balanced. */
constexpr double kBalancedTopShareMax = 0.05;

/** Least share of steps the busiest pod of fleet_hotspot must run. */
constexpr double kHotspotTopShareMin = 0.99;

/** The hotspot fleet's SLO monitor: global p99 and priority 2. */
constexpr const char *kHotspotSlo = "0.5,2:0.2";

SweepOptions
runnerOptions(int threads)
{
    // No disk cache and a fresh runner per iteration: every iteration
    // pays plan building and scenario evaluation, as a CLI run does.
    SweepOptions opts;
    opts.threads = threads;
    return opts;
}

/**
 * Set-up includes building a runner, so setup_s shows work moved into
 * runner construction; each iteration then builds its own cold runner
 * before its clock starts.
 */
void
constructRunner(int threads)
{
    SweepRunner runner(runnerOptions(threads));
}

ArrivalTrace
generate(const std::string &specText)
{
    std::string err;
    const auto gen = parseTraceGenSpec(specText, &err);
    if (!gen)
        throw std::runtime_error("bad trace spec '" + specText +
                                 "': " + err);
    return generateTrace(*gen);
}

std::string
canonicalCsv(const ArrivalTrace &trace)
{
    std::ostringstream os;
    writeTraceCsv(os, trace);
    return os.str();
}

ArrivalTrace
parseCsv(const std::string &csv, Problems *problems)
{
    std::istringstream is(csv);
    std::string err;
    ArrivalTrace trace = loadTraceCsv(is, &err);
    if (!err.empty())
        problems->push_back("trace CSV did not parse: " + err);
    return trace;
}

double
phaseSeconds(const std::map<std::string, obs::Profiler::Phase> &phases,
             const char *name)
{
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
}

void
append(Problems *into, const Problems &more)
{
    into->insert(into->end(), more.begin(), more.end());
}

void
coreCounts(const serve_core::Counters &c, Metrics *m)
{
    (*m)["serve_core.steps"] = double(c.steps);
    (*m)["serve_core.events"] = double(c.events());
    (*m)["serve_core.dispatches"] = double(c.dispatches);
    (*m)["serve_core.coalesced_quanta"] = double(c.coalescedQuanta);
}

/** Per-layer metrics start from the counts, plus the plan hit rate. */
void
addCounts(const Metrics &counts, Metrics *layer)
{
    layer->insert(counts.begin(), counts.end());
    const double hits = counts.at("backend.plan_hits");
    (*layer)["backend.plan_hit_rate"] =
        hits / std::max(1.0, hits + counts.at("backend.plan_misses"));
}

// -------------------------------------------------------------- fleets

class FleetWorkload : public Workload
{
  public:
    FleetWorkload(bool hotspot, int threads)
        : hotspot_(hotspot), threads_(threads)
    {
    }

    std::string
    describe() const override
    {
        return std::to_string(sessions_) + " sessions (items) on " +
               std::to_string(2 * kPodsPerType) + " pods, " +
               (hotspot_ ? "first-fit" : "load-aware") +
               " placement, rebalance on, " +
               std::to_string(threads_) + " epoch workers";
    }

    void
    setup(std::uint64_t seed, Metrics *layer) override
    {
        const Clock::time_point t0 = Clock::now();
        const ArrivalTrace trace = generate(
            "diurnal:rate=12,horizon=86400,qos=2,seed=" +
            std::to_string(seed) +
            ",cap=" + std::to_string(kFleetSessions));
        (*layer)["arrivals.generate_s"] =
            secondsBetween(t0, Clock::now());
        traceCsv_ = canonicalCsv(trace);
        sessions_ = trace.jobs.size();

        std::string err;
        const auto os = parsePodTemplate(
            "df=OS,count=" + std::to_string(kPodsPerType), &err);
        if (!os)
            throw std::runtime_error("bad pod template: " + err);
        spec_ = buildFleet({defaultPodGroup(kPodsPerType), *os});
        spec_.placement = hotspot_ ? PlacementKind::kFirstFit
                                   : PlacementKind::kLoadAware;
        spec_.rebalance.enabled = true;
        spec_.controlIntervalSec = kControlSec;
        if (!parseSloSpec(kHotspotSlo, &slo_, &err))
            throw std::runtime_error("bad SLO spec: " + err);
        constructRunner(threads_);
    }

    Iteration
    run(Tracer *tracer, Stopwatch &sw) override
    {
        Iteration it;
        Metrics &L = it.layer;
        SweepRunner runner(runnerOptions(threads_));
        obs::RunTelemetry telemetry;
        telemetry.slo = slo_;
        HashSink sink;
        double cpu0 = 0.0, heap0 = 0.0, cpu1 = 0.0, heap1 = 0.0;

        sw.start();
        ScopedSpan root(tracer, "iteration", Layer::kBench);
        ArrivalTrace trace;
        {
            ScopedSpan s(tracer, "loadTraceCsv", Layer::kArrivals);
            trace = parseCsv(traceCsv_, &it.problems);
            L["arrivals.parse_s"] = s.close();
        }
        if (tracer) {
            cpu0 = processCpuSeconds();
            heap0 = heapBytesInUse();
        }
        FleetResult fleet;
        {
            ScopedSpan s(tracer, "simulateFleet", Layer::kFleet, true);
            fleet = simulateFleet(spec_, trace, runner, threads_,
                                  nullptr,
                                  hotspot_ ? &telemetry : nullptr);
            L["fleet.simulate_s"] = s.close();
        }
        if (tracer) {
            cpu1 = processCpuSeconds();
            heap1 = heapBytesInUse();
        }
        double emitS = 0.0;
        {
            ScopedSpan s(tracer, "writeFleetPodCsv", Layer::kFleet);
            writeFleetPodCsv(sink.stream(), fleet);
            emitS += s.close();
        }
        std::uint64_t tsBytes = 0;
        if (hotspot_) {
            {
                ScopedSpan s(tracer, "writeFleetTenantCsv",
                             Layer::kFleet);
                writeFleetTenantCsv(sink.stream(), fleet);
                emitS += s.close();
            }
            const std::uint64_t before = sink.bytes();
            ScopedSpan s(tracer, "RunTelemetry::writeCsv", Layer::kObs);
            telemetry.writeCsv(sink.stream());
            L["obs.timeseries_emit_s"] = s.close();
            tsBytes = sink.bytes() - before;
        } else {
            ScopedSpan s(tracer, "writeFleetJson", Layer::kFleet);
            writeFleetJson(sink.stream(), fleet);
            emitS += s.close();
        }
        sink.stream().flush();
        root.close();
        sw.stop();

        it.items = double(sessions_);
        it.attempted = 1;
        it.errored = fleet.ok() ? 0 : 1;
        it.digest = sink.digest();
        if (trace.jobs.size() != sessions_)
            it.problems.push_back("trace CSV lost sessions");
        append(&it.problems, checkFleet(fleet, sessions_));
        const double share = topPodShare(fleet);
        if (hotspot_) {
            append(&it.problems,
                   checkTelemetry(telemetry.decompExactFailures,
                                  telemetry.decompSteps));
            append(&it.problems, checkShare("fleet.top_pod_share", share,
                                            kHotspotTopShareMin, 1.0));
        } else {
            append(&it.problems, checkShare("fleet.top_pod_share", share,
                                            0.0, kBalancedTopShareMax));
        }

        Metrics &C = it.counts;
        C["arrivals.sessions"] = double(sessions_);
        C["fleet.migrations"] = double(fleet.migrations);
        C["fleet.rejected"] = double(fleet.rejectedCount);
        C["fleet.emit_bytes"] = double(sink.bytes() - tsBytes);
        C["obs.timeseries_bytes"] = double(tsBytes);
        C["obs.exact_sum_failures"] =
            double(telemetry.decompExactFailures);
        C["backend.plan_hits"] = double(fleet.planHits);
        C["backend.plan_misses"] = double(fleet.planMisses);
        coreCounts(fleet.coreCounters, &C);
        if (!tracer)
            return it;

        const auto phases = obs::Profiler::instance().phases();
        const double sessions = double(sessions_);
        addCounts(C, &L);
        const double placement = phaseSeconds(phases, "placement");
        const double serve = phaseSeconds(phases, "epoch_serve");
        L["fleet.placement_s"] = placement;
        L["fleet.placement_ns_per_session"] = placement / sessions * 1e9;
        L["fleet.epoch_serve_s"] = serve;
        L["fleet.epochs"] =
            phases.count("epoch_serve")
                ? double(phases.at("epoch_serve").calls)
                : 0.0;
        L["fleet.cpu_util"] =
            (cpu1 - cpu0) / (L["fleet.simulate_s"] * threads_);
        L["fleet.controls_s"] = phaseSeconds(phases, "fleet_controls");
        L["fleet.assemble_s"] = phaseSeconds(phases, "fleet_assemble");
        L["fleet.assemble_tenants_s"] =
            phaseSeconds(phases, "assemble_tenants");
        L["fleet.assemble_pods_s"] = phaseSeconds(phases, "assemble_pods");
        L["fleet.assemble_agg_s"] = phaseSeconds(phases, "assemble_agg");
        L["fleet.result_bytes_per_session"] = (heap1 - heap0) / sessions;
        L["fleet.top_pod_share"] = share;
        L["fleet.emit_s"] = emitS;
        L["fleet.pricing_s"] = phaseSeconds(phases, "fleet_pricing");
        L["serve_core.ns_per_event"] =
            serve / std::max(1.0, C["serve_core.events"]) * 1e9;
        L["obs.assemble_telemetry_s"] =
            phaseSeconds(phases, "assemble_telemetry");
        L["backend.plan_build_s"] = phaseSeconds(phases, "plan_build");
        L["sweep.scenario_eval_s"] = phaseSeconds(phases, "scenario_eval");
        return it;
    }

  private:
    bool hotspot_;
    int threads_;
    std::string traceCsv_;
    std::size_t sessions_ = 0;
    FleetSpec spec_;
    obs::SloSpec slo_;
};

// --------------------------------------------------------------- sweep

/** Strata the sweep axes draw from; see drawSweepAxes. The largest
 *  batch sets the sweep's peak memory, which steps up between 120 and
 *  128 (by 8%), so the top batch stratum stays below the step. */
const std::vector<std::vector<int>> kScaleStrata = {
    {48, 56, 64}, {104, 112, 120}, {152, 160, 168}};
const std::vector<std::vector<int>> kBatchStrata = {
    {24, 32}, {56, 64}, {112, 120}};

/** Micro-batch sizes crossed in (0 = monolithic); not drawn, because
 *  the micro-batch sets the op-stream length and so the memory. */
const std::vector<int> kMicrobatches = {0, 4};

/** Pod shapes crossed in; every drawn batch shards over either. */
const std::vector<int> kPodChips = {4, 8};

class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(int threads) : threads_(threads) {}

    std::string
    describe() const override
    {
        const auto list = [](const std::vector<int> &v) {
            std::string s;
            for (int x : v) {
                if (!s.empty())
                    s += ',';
                s += std::to_string(x);
            }
            return s;
        };
        return std::to_string(expanded_) +
               " scenarios (items): 9 zoo models x WS/OS/DiVa x PPU x "
               "3 algorithms x scales " + list(spec_.modelScales) +
               " x batches " + list(spec_.batches) + " x micro-batches " +
               list(spec_.microbatches) +
               " x chip/pod(4)/pod(8), cold runner, " +
               std::to_string(threads_) + " threads";
    }

    void
    setup(std::uint64_t seed, Metrics *) override
    {
        const SweepAxes axes = drawSweepAxes(seed);
        spec_ = SweepSpec{};
        AcceleratorConfig wsPpu = tpuV3Ws();
        wsPpu.hasPpu = true; // invalid: expand() counts it as skipped
        spec_.configs = {tpuV3Ws(),          wsPpu,
                         systolicOs(false),  systolicOs(true),
                         divaDefault(false), divaDefault(true)};
        spec_.models = knownModels();
        spec_.modelScales = axes.scales;
        spec_.batches = axes.batches;
        spec_.microbatches = axes.microbatches;
        spec_.algorithms = {TrainingAlgorithm::kSgd,
                            TrainingAlgorithm::kDpSgd,
                            TrainingAlgorithm::kDpSgdR};
        spec_.backends = {SweepBackend::kSingleChip,
                          SweepBackend::kMultiChip};
        spec_.pods.clear();
        for (int chips : kPodChips) {
            MultiChipConfig pod;
            pod.numChips = chips;
            spec_.pods.push_back(pod);
        }
        expanded_ = spec_.expand().scenarios.size();
        constructRunner(threads_);
    }

    Iteration
    run(Tracer *tracer, Stopwatch &sw) override
    {
        Iteration it;
        Metrics &L = it.layer;
        SweepRunner runner(runnerOptions(threads_));
        HashSink sink;
        double cpu0 = 0.0, heap0 = 0.0, cpu1 = 0.0, heap1 = 0.0;

        sw.start();
        ScopedSpan root(tracer, "iteration", Layer::kBench);
        SweepSpec::Expansion expansion;
        {
            ScopedSpan s(tracer, "SweepSpec::expand", Layer::kSweep);
            expansion = spec_.expand();
            L["sweep.expand_s"] = s.close();
        }
        if (tracer) {
            cpu0 = processCpuSeconds();
            heap0 = heapBytesInUse();
        }
        SweepReport report;
        {
            ScopedSpan s(tracer, "SweepRunner::run", Layer::kSweep, true);
            report = runner.run(expansion.scenarios);
            L["sweep.run_s"] = s.close();
        }
        if (tracer) {
            cpu1 = processCpuSeconds();
            heap1 = heapBytesInUse();
        }
        const std::vector<Objective> objectives = {Objective::kCycles,
                                                   Objective::kEnergy};
        SweepSummary summary;
        std::vector<std::size_t> frontier;
        {
            ScopedSpan s(tracer, "summarizeResults", Layer::kSweep);
            summary = summarizeResults(report.results);
            L["sweep.aggregate_s"] = s.close();
        }
        {
            ScopedSpan s(tracer, "paretoFrontier", Layer::kSweep);
            frontier = paretoFrontier(report.results, objectives);
            L["sweep.aggregate_s"] += s.close();
        }
        {
            ScopedSpan s(tracer, "writeCsv", Layer::kSweep);
            writeCsv(sink.stream(), report);
            L["sweep.emit_s"] = s.close();
        }
        {
            ScopedSpan s(tracer, "writeJson", Layer::kSweep);
            writeJson(sink.stream(), report);
            L["sweep.emit_s"] += s.close();
        }
        {
            ScopedSpan s(tracer, "write summary", Layer::kSweep);
            writeSummary(sink.stream(), summary, report, frontier,
                         objectives);
            L["sweep.emit_s"] += s.close();
        }
        sink.stream().flush();
        root.close();
        sw.stop();

        const double scenarios = double(expansion.scenarios.size());
        it.items = scenarios;
        it.attempted = expansion.scenarios.size();
        it.errored = report.failures;
        it.digest = sink.digest();
        append(&it.problems, checkSweep(report, expanded_));
        if (frontier.empty())
            it.problems.push_back("sweep: empty Pareto frontier");

        Metrics &C = it.counts;
        C["sweep.scenarios"] = scenarios;
        C["sweep.failures"] = double(report.failures);
        C["sweep.emit_bytes"] = double(sink.bytes());
        C["backend.plan_hits"] = double(report.planHits);
        C["backend.plan_misses"] = double(report.planMisses);
        if (!tracer)
            return it;

        const auto phases = obs::Profiler::instance().phases();
        addCounts(C, &L);
        L["sweep.us_per_scenario"] = L["sweep.run_s"] / scenarios * 1e6;
        L["sweep.cpu_util"] =
            (cpu1 - cpu0) / (L["sweep.run_s"] * threads_);
        L["sweep.scenario_eval_s"] =
            phaseSeconds(phases, "scenario_eval");
        L["sweep.result_bytes_per_scenario"] =
            (heap1 - heap0) / scenarios;
        L["backend.plan_build_s"] = phaseSeconds(phases, "plan_build");
        return it;
    }

  private:
    /** The CLI's summary table and Pareto front, as plain text. */
    static void
    writeSummary(std::ostream &os, const SweepSummary &summary,
                 const SweepReport &report,
                 const std::vector<std::size_t> &frontier,
                 const std::vector<Objective> &objectives)
    {
        const auto stat = [&](const char *name, const SummaryStats &s) {
            os << name << ',' << s.count << ',' << formatDouble(s.min)
               << ',' << formatDouble(s.median) << ','
               << formatDouble(s.p95) << ',' << formatDouble(s.max)
               << '\n';
        };
        stat("cycles", summary.cycles);
        stat("seconds", summary.seconds);
        stat("utilization", summary.utilization);
        stat("energy_j", summary.energyJ);
        for (std::size_t i : frontier) {
            os << report.results[i].scenario.label();
            for (Objective o : objectives)
                os << ','
                   << formatDouble(objectiveValue(report.results[i], o));
            os << '\n';
        }
    }

    int threads_;
    SweepSpec spec_;
    std::size_t expanded_ = 0;
};

// --------------------------------------------------------------- serve

class ServeWorkload : public Workload
{
  public:
    std::string
    describe() const override
    {
        return std::to_string(sessions_) +
               " sessions x 4 policies (items) replayed open loop with "
               "admission on one DiVa chip, 1 thread";
    }

    void
    setup(std::uint64_t seed, Metrics *layer) override
    {
        // Two seeded Poisson streams, merged by arrival: best-effort
        // sessions (always admitted, run back to back) and rate-target
        // sessions whose summed demand the controller must cut, so
        // admission sheds some sessions and not all.
        const Clock::time_point t0 = Clock::now();
        const std::string common =
            "poisson:rate=0.5,horizon=100000,steps=512,hold=60,cap=" +
            std::to_string(kServeSessions / 2);
        ArrivalTrace trace =
            generate(common + ",seed=" + std::to_string(2 * seed));
        const ArrivalTrace qos = generate(
            common + ",qos=2,seed=" + std::to_string(2 * seed + 1));
        for (TenantJob job : qos.jobs) {
            job.name = "q" + job.name;
            trace.jobs.push_back(std::move(job));
        }
        std::stable_sort(trace.jobs.begin(), trace.jobs.end(),
                         [](const TenantJob &a, const TenantJob &b) {
                             return a.arrivalSec < b.arrivalSec;
                         });
        trace.name = "mixed-poisson-s" + std::to_string(seed);
        (*layer)["arrivals.generate_s"] =
            secondsBetween(t0, Clock::now());
        traceCsv_ = canonicalCsv(trace);
        sessions_ = trace.jobs.size();

        base_ = ReplaySpec{};
        base_.config = divaDefault(true);
        base_.admission = true;
        constructRunner(1);
    }

    Iteration
    run(Tracer *tracer, Stopwatch &sw) override
    {
        Iteration it;
        Metrics &L = it.layer;
        SweepRunner runner(runnerOptions(1));
        HashSink sink;
        ReplaySpec spec = base_;
        std::vector<ServeResult> results;

        sw.start();
        ScopedSpan root(tracer, "iteration", Layer::kBench);
        {
            ScopedSpan s(tracer, "loadTraceCsv", Layer::kArrivals);
            spec.trace = parseCsv(traceCsv_, &it.problems);
            L["arrivals.parse_s"] = s.close();
        }
        double planBuild = 0.0, scenarioEval = 0.0, replayS = 0.0;
        for (SchedPolicy policy : allPolicies()) {
            spec.policy = policy;
            const std::string name =
                std::string("replayTrace ") + policyName(policy);
            ScopedSpan s(tracer, name.c_str(), Layer::kTenant, true);
            results.push_back(replayTrace(spec, runner));
            const double t = s.close();
            L[std::string("tenant.replay_s.") + policyName(policy)] = t;
            replayS += t;
            if (tracer) {
                const auto phases = obs::Profiler::instance().phases();
                planBuild += phaseSeconds(phases, "plan_build");
                scenarioEval += phaseSeconds(phases, "scenario_eval");
            }
        }
        {
            ScopedSpan s(tracer, "writeServeCsv", Layer::kTenant);
            writeServeCsv(sink.stream(), results);
            L["tenant.emit_s"] = s.close();
        }
        {
            ScopedSpan s(tracer, "writeServeJson", Layer::kTenant);
            writeServeJson(sink.stream(), results);
            L["tenant.emit_s"] += s.close();
        }
        sink.stream().flush();
        root.close();
        sw.stop();
        const PlanCache::Stats plans = runner.planCache().stats();

        // The controller's own verdict on the same trace, for the
        // admitted-count check and (traced) its own time; the costs
        // come from the runner's warm cache. The spec and the pricing
        // mirror replayTrace and serveWithAdmission
        // (src/arrivals/replay.cc); keep them in step.
        ServeSpec serve;
        serve.workload = spec.trace.workload();
        serve.config = spec.config;
        serve.chips = spec.chips;
        serve.pod = spec.pod;
        serve.backends = spec.backends;
        serve.opts = spec.opts;
        serve.opts.openLoop = true;
        std::string err;
        const std::vector<IterationCost> costs =
            isolatedCosts(serve, runner, &err);
        if (!err.empty())
            it.problems.push_back("serve: pricing failed: " + err);
        if (err.empty() && serve.opts.autoQosFairShare) {
            auto &jobs = serve.workload.jobs;
            const double n = double(jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i)
                if (!jobs[i].hasQos())
                    jobs[i].qosStepsPerSec =
                        safeRatio(1.0, costs[i].seconds) / n;
        }
        AdmissionDecision decision;
        {
            ScopedSpan s(tracer, "decideAdmission", Layer::kArrivals);
            decision = decideAdmission(serve.workload.jobs, costs,
                                       spec.admissionOpts);
            L["tenant.admission_s"] = s.close();
        }

        it.items = double(sessions_ * results.size());
        it.attempted = results.size();
        it.digest = sink.digest();
        serve_core::Counters core;
        for (const ServeResult &r : results) {
            it.errored += r.ok() ? 0 : 1;
            append(&it.problems,
                   checkServe(r, sessions_, decision.admittedCount));
            core += r.coreCounters;
        }
        const double admittedFrac =
            double(decision.admittedCount) / double(sessions_);
        append(&it.problems,
               checkShare("tenant.admitted_frac", admittedFrac,
                          std::nextafter(0.0, 1.0),
                          std::nextafter(1.0, 0.0)));

        Metrics &C = it.counts;
        C["arrivals.sessions"] = double(sessions_);
        C["tenant.admitted"] = double(decision.admittedCount);
        C["tenant.emit_bytes"] = double(sink.bytes());
        C["backend.plan_hits"] = double(plans.hits());
        C["backend.plan_misses"] = double(plans.misses());
        coreCounts(core, &C);
        if (!tracer)
            return it;

        addCounts(C, &L);
        L.erase("tenant.admitted");
        L["tenant.admitted_frac"] = admittedFrac;
        L["serve_core.ns_per_event"] =
            replayS / std::max(1.0, C["serve_core.events"]) * 1e9;
        L["backend.plan_build_s"] = planBuild;
        L["sweep.scenario_eval_s"] = scenarioEval;
        return it;
    }

  private:
    std::string traceCsv_;
    std::size_t sessions_ = 0;
    ReplaySpec base_;
};

} // namespace

SweepAxes
drawSweepAxes(std::uint64_t seed)
{
    Rng rng(seed);
    const auto pick = [&](const std::vector<int> &from) {
        return from[std::size_t(rng.uniformInt(from.size()))];
    };
    SweepAxes axes;
    for (const auto &stratum : kScaleStrata)
        axes.scales.push_back(pick(stratum));
    for (const auto &stratum : kBatchStrata)
        axes.batches.push_back(pick(stratum));
    axes.microbatches = kMicrobatches;
    return axes;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fleet_balanced", "fleet_hotspot", "sweep_cold",
        "serve_policies"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, int threads)
{
    if (name == "fleet_balanced")
        return std::make_unique<FleetWorkload>(false, threads);
    if (name == "fleet_hotspot")
        return std::make_unique<FleetWorkload>(true, threads);
    if (name == "sweep_cold")
        return std::make_unique<SweepWorkload>(threads);
    if (name == "serve_policies")
        return std::make_unique<ServeWorkload>();
    return nullptr;
}

const std::map<std::string, std::string> &
perLayerCatalogue()
{
    static const std::map<std::string, std::string> catalogue = [] {
        std::map<std::string, std::string> c = {
            {"arrivals.generate_s", "s"},
            {"arrivals.parse_s", "s"},
            {"arrivals.sessions", "count"},
            {"fleet.placement_s", "s"},
            {"fleet.placement_ns_per_session", "ns"},
            {"fleet.epoch_serve_s", "s"},
            {"fleet.cpu_util", "frac"},
            {"fleet.epochs", "count"},
            {"fleet.controls_s", "s"},
            {"fleet.migrations", "count"},
            {"fleet.rejected", "count"},
            {"fleet.simulate_s", "s"},
            {"fleet.assemble_s", "s"},
            {"fleet.assemble_tenants_s", "s"},
            {"fleet.assemble_pods_s", "s"},
            {"fleet.assemble_agg_s", "s"},
            {"fleet.result_bytes_per_session", "B/session"},
            {"fleet.top_pod_share", "frac"},
            {"fleet.emit_s", "s"},
            {"fleet.emit_bytes", "B"},
            {"fleet.pricing_s", "s"},
            {"serve_core.steps", "count"},
            {"serve_core.events", "count"},
            {"serve_core.dispatches", "count"},
            {"serve_core.coalesced_quanta", "count"},
            {"serve_core.ns_per_event", "ns"},
            {"obs.assemble_telemetry_s", "s"},
            {"obs.timeseries_emit_s", "s"},
            {"obs.timeseries_bytes", "B"},
            {"obs.exact_sum_failures", "count"},
            {"sweep.expand_s", "s"},
            {"sweep.run_s", "s"},
            {"sweep.us_per_scenario", "us"},
            {"sweep.cpu_util", "frac"},
            {"sweep.scenarios", "count"},
            {"sweep.failures", "count"},
            {"sweep.scenario_eval_s", "s"},
            {"sweep.result_bytes_per_scenario", "B/scenario"},
            {"sweep.aggregate_s", "s"},
            {"sweep.emit_s", "s"},
            {"sweep.emit_bytes", "B"},
            {"backend.plan_build_s", "s"},
            {"backend.plan_hits", "count"},
            {"backend.plan_misses", "count"},
            {"backend.plan_hit_rate", "frac"},
            {"tenant.replay_s.fifo", "s"},
            {"tenant.replay_s.rr", "s"},
            {"tenant.replay_s.prio", "s"},
            {"tenant.replay_s.edf", "s"},
            {"tenant.admission_s", "s"},
            {"tenant.admitted_frac", "frac"},
            {"tenant.emit_s", "s"},
            {"tenant.emit_bytes", "B"},
            {"trace.overhead_frac", "frac"},
        };
        for (Layer layer : allLayers())
            c[std::string("self_s.") + layerName(layer)] = "s";
        return c;
    }();
    return catalogue;
}

} // namespace perfbench
