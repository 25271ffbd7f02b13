#include "tenant/serve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve_core/core.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Per-tenant billing state the serve loop tracks beside the core's
 *  scheduling state (serve_core::TaskCore). */
struct TenantRun
{
    bool started = false;
    double firstStartSec = 0.0;
    double energyJ = 0.0;
    std::uint64_t switchesIn = 0;

    /** Per-executed-step latency samples, chronological. */
    std::vector<double> latencySec;

    /** Windowed latency decomposition (telemetry runs only). */
    obs::ComponentWindows windows;
};

/** serve_core client for the single-executor tenant serve loop: task
 *  scalars come straight from the jobs, billing lands on TenantRun
 *  and the run-level ServeResult accumulators. */
struct ServeClient
{
    const std::vector<TenantJob> &jobs;
    const std::vector<IterationCost> &costs;
    const SwitchCost &sw;
    ServeResult &out;
    std::vector<TenantRun> &run;
    std::vector<serve_core::TaskCore> cores;
    obs::TraceTrack *trace = nullptr;
    obs::RunTelemetry *telemetry = nullptr;

    /** Context switches per window (single-writer: the loop is
     *  sequential), published as `serve.<policy>.switches`. */
    std::map<std::int64_t, double> switchWindows;

    ServeClient(const std::vector<TenantJob> &j,
                const std::vector<IterationCost> &c,
                const SwitchCost &s, ServeResult &o,
                std::vector<TenantRun> &r)
        : jobs(j), costs(c), sw(s), out(o), run(r), cores(j.size())
    {
    }

    bool owns(const serve_core::Executor &, std::uint32_t) const
    {
        return true; // single executor; tasks never move
    }
    double arrivalSec(std::uint32_t i) const
    {
        return jobs[i].arrivalSec;
    }
    double departSec(std::uint32_t i) const
    {
        return jobs[i].departSec;
    }
    double rateSps(std::uint32_t i) const
    {
        return jobs[i].qosStepsPerSec;
    }
    double qosDeadlineSec(std::uint32_t i) const
    {
        return jobs[i].qosDeadlineSec;
    }
    std::uint64_t stepLimit(std::uint32_t i) const
    {
        return jobs[i].steps;
    }
    int priority(std::uint32_t i) const { return jobs[i].priority; }
    double stepSeconds(const serve_core::Executor &,
                       std::uint32_t i) const
    {
        return costs[i].seconds;
    }
    double switchSeconds(const serve_core::Executor &) const
    {
        return sw.seconds;
    }
    serve_core::TaskCore &core(std::uint32_t i) { return cores[i]; }
    const serve_core::TaskCore &core(std::uint32_t i) const
    {
        return cores[i];
    }

    void onSwitch(serve_core::Executor &ex, std::uint32_t i)
    {
        ++out.contextSwitches;
        ++run[i].switchesIn;
        out.switchSec += sw.seconds;
        out.switchEnergyJ += sw.energyJ;
        out.switchDramBytes += sw.dramBytes;
        run[i].energyJ += sw.energyJ;
        if (telemetry)
            ++switchWindows[obs::windowIndexOf(
                ex.nowSec, telemetry->invWindowSec)];
        if (trace)
            trace->instant(ex.nowSec, "switch -> " + jobs[i].name,
                           "switch");
    }
    void onStep(serve_core::Executor &ex, std::uint32_t i,
                double stepStartSec, double latencySec,
                double eligibleSec, double switchLeadSec)
    {
        if (!run[i].started) {
            run[i].started = true;
            run[i].firstStartSec = stepStartSec;
        }
        run[i].energyJ += costs[i].energyJ;
        run[i].latencySec.push_back(latencySec);
        if (telemetry) {
            obs::LatencyComponents comp;
            bool exact;
            if (switchLeadSec == 0.0) {
                exact = obs::decomposeLatencyAudited(
                    latencySec, costs[i].seconds, 0.0, 0.0, &comp);
            } else {
                const double wait =
                    std::max(0.0, stepStartSec - eligibleSec);
                exact = obs::decomposeLatencyAudited(
                    latencySec, costs[i].seconds,
                    std::min(switchLeadSec, wait), 0.0, &comp);
            }
            ++telemetry->decompSteps;
            if (!exact)
                ++telemetry->decompExactFailures;
            run[i].windows.record(ex.nowSec, latencySec, comp);
        }
        if (trace)
            trace->span(stepStartSec,
                        stepStartSec + costs[i].seconds,
                        jobs[i].name, "step");
    }
    void onRetire(serve_core::Executor &, std::uint32_t) {}
};

std::string
validateInputs(const ServeSpec &spec,
               const std::vector<IterationCost> &costs,
               const SwitchCost &sw)
{
    const bool wall_limited = spec.opts.wallLimitSec > 0.0;
    if (spec.opts.quantumIters < 1)
        return "quantum must be >= 1 iteration";
    if (!(spec.opts.wallLimitSec >= 0.0) ||
        !std::isfinite(spec.opts.wallLimitSec))
        return "wall budget must be finite and >= 0";
    if (spec.chips < 1)
        return "chip count must be >= 1";
    const std::string mix_err =
        spec.workload.validationError(wall_limited);
    if (!mix_err.empty())
        return mix_err;
    if (costs.size() != spec.workload.jobs.size())
        return "one iteration cost per tenant required";
    for (std::size_t i = 0; i < costs.size(); ++i)
        if (!(costs[i].seconds > 0.0) || !std::isfinite(costs[i].seconds) ||
            !(costs[i].energyJ >= 0.0) || !std::isfinite(costs[i].energyJ))
            return "tenant '" + spec.workload.jobs[i].name +
                   "': iteration cost must be positive and finite";
    if (!(sw.seconds >= 0.0) || !std::isfinite(sw.seconds) ||
        !(sw.energyJ >= 0.0) || !std::isfinite(sw.energyJ))
        return "context-switch cost must be finite and >= 0";
    return "";
}

} // namespace

std::size_t
ServeResult::admittedCount() const
{
    std::size_t admitted = 0;
    for (const TenantMetrics &t : tenants)
        admitted += t.admitted ? 1 : 0;
    return admitted;
}

double
safeRatio(double num, double den)
{
    if (den == 0.0 || !std::isfinite(den))
        return kNaN;
    return num / den;
}

void
publishCoreCounters(const serve_core::Counters &c)
{
    auto &metrics = obs::MetricsRegistry::instance();
    metrics.addCounter("serve_core.steps", c.steps);
    metrics.addCounter("serve_core.dispatches", c.dispatches);
    metrics.addCounter("serve_core.coalesced_quanta", c.coalescedQuanta);
    metrics.addCounter("serve_core.promotions", c.promotions);
    metrics.addCounter("serve_core.idle_jumps", c.idleJumps);
    metrics.addCounter("serve_core.context_switches", c.switches);
    metrics.addCounter("serve_core.retired", c.retired);
}

ServeResult
emptyServeResult(const ServeSpec &spec)
{
    ServeResult out;
    out.workloadName = spec.workload.name;
    out.configName = spec.config.name;
    out.policy = spec.policy;
    out.chips = spec.chips;
    out.quantumIters = spec.opts.quantumIters;
    out.wallLimitSec = spec.opts.wallLimitSec;
    return out;
}

Scenario
tenantScenario(const AcceleratorConfig &config, int chips,
               const MultiChipConfig &pod, const TenantJob &job)
{
    Scenario s;
    s.config = config;
    s.model = job.model;
    s.modelScale = job.modelScale;
    s.batch = job.batch;
    s.microbatch = job.microbatch;
    s.algorithm = job.algorithm;
    if (chips > 1) {
        s.backend = SweepBackend::kMultiChip;
        s.pod = pod;
        s.pod.numChips = chips;
    }
    return s;
}

IterationCost
iterationCost(const ScenarioResult &r)
{
    IterationCost c;
    c.seconds = r.seconds;
    c.energyJ = r.energyJ;
    c.dramBytes = r.dramBytes;
    c.cycles = r.cycles;
    c.resolvedBatch = r.resolvedBatch;
    return c;
}

std::string
backendListError(const std::vector<SweepBackend> &allowed,
                 SweepBackend needed)
{
    if (allowed.empty() ||
        std::find(allowed.begin(), allowed.end(), needed) != allowed.end())
        return "";
    return std::string("backend '") + backendName(needed) +
           "' is not in the allowed --backends list";
}

void
fillFairShareQos(std::vector<TenantJob> &jobs,
                 const std::vector<IterationCost> &costs)
{
    const double n = double(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!jobs[i].hasQos())
            jobs[i].qosStepsPerSec = safeRatio(1.0, costs[i].seconds) / n;
}

ServeResult
runServeLoop(const ServeSpec &spec, const std::vector<IterationCost> &costs,
             const SwitchCost &switchCost)
{
    ServeResult out = emptyServeResult(spec);
    out.error = validateInputs(spec, costs, switchCost);
    if (!out.ok())
        return out;

    // The loop works on a private copy of the jobs so fair-share QoS
    // targets can be filled in and echoed back through the metrics.
    std::vector<TenantJob> jobs = spec.workload.jobs;
    const std::size_t n = jobs.size();
    if (spec.opts.autoQosFairShare)
        fillFairShareQos(jobs, costs);

    const double wall = spec.opts.wallLimitSec;
    std::vector<TenantRun> run(n);
    ServeClient client(jobs, costs, switchCost, out, run);
    client.trace = spec.opts.traceTrack;
    if (obs::RunTelemetry *tel = spec.opts.telemetry) {
        if (!(tel->invWindowSec > 0.0)) {
            // Deterministic span guess from the inputs alone: the
            // wall budget when one is set, else the last arrival.
            double span = wall;
            for (const TenantJob &j : jobs)
                span = std::max(span, j.arrivalSec);
            tel->resolveWindow(span);
        }
        for (std::size_t i = 0; i < n; ++i)
            run[i].windows.configure(
                tel->invWindowSec, tel->slo.targetFor(jobs[i].priority),
                tel->slo.globalTargetSec);
        client.telemetry = tel;
    }

    serve_core::Config cfg;
    cfg.policy = spec.policy;
    cfg.quantumIters = spec.opts.quantumIters;
    cfg.wallLimitSec = wall;
    // The tenant loop's historical semantics (see serve_core::Mode),
    // gating only under open-loop replay.
    cfg.mode = serve_core::Mode::kTenant;
    cfg.rateGates = spec.opts.openLoop;

    serve_core::Executor ex;
    ex.arrivals.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        ex.arrivals[i] = std::uint32_t(i);
    std::stable_sort(ex.arrivals.begin(), ex.arrivals.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return jobs[a].arrivalSec < jobs[b].arrivalSec;
                     });

    serve_core::runUntil(client, ex, cfg, kInf);
    out.makespanSec = ex.nowSec;
    out.coreCounters = ex.counters;

    // Telemetry publish point (sequential, tenant index order, so the
    // emitted floats replay byte-identically).
    if (obs::RunTelemetry *tel = spec.opts.telemetry) {
        const std::string prefix =
            std::string("serve.") + policyName(spec.policy) + ".";
        std::map<int,
                 std::map<std::int64_t, obs::ComponentWindows::Row>>
            by_prio;
        for (std::size_t i = 0; i < n; ++i) {
            run[i].windows.finish();
            std::map<std::int64_t, obs::ComponentWindows::Row> rows;
            obs::mergeComponentRows(run[i].windows.rows(), &rows);
            obs::publishComponentSeries(
                rows, prefix + "tenant." + jobs[i].name + ".",
                &tel->snapshot);
            obs::mergeComponentRows(run[i].windows.rows(),
                                    &by_prio[jobs[i].priority]);
        }
        obs::publishLatencyWindows(by_prio, prefix, tel);
        for (const auto &[w, count] : client.switchWindows)
            tel->snapshot.add(prefix + "switches",
                              obs::TimeSeries::Kind::kCounter, w,
                              count);
    }

    // Sequential publish point: the loop above is single-threaded, so
    // these totals are a pure function of the simulated work.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        publishCoreCounters(out.coreCounters);
        for (const TenantRun &r : run)
            for (double latency : r.latencySec)
                metrics.recordValue("serve.step_latency_sec", latency);
    }
    const std::vector<serve_core::TaskCore> &cores = client.cores;

    // Per-tenant metrics.
    double qos_sum = 0.0;
    std::size_t qos_count = 0;
    LatencyCensus all_latencies;
    for (std::size_t i = 0; i < n; ++i) {
        TenantMetrics m;
        m.job = jobs[i];
        m.resolvedBatch = reportedBatch(costs[i], jobs[i]);
        m.stepsDone = cores[i].done;
        m.completed = cores[i].completed;
        scoreSession(m, jobs[i], cores[i], costs[i].seconds, wall,
                     out.makespanSec);
        m.waitSec = run[i].started
                        ? run[i].firstStartSec - jobs[i].arrivalSec
                        : kNaN;
        m.slowdown =
            safeRatio(m.isolatedStepsPerSec, m.achievedStepsPerSec);
        if (std::isfinite(m.qosAttainmentPct)) {
            qos_sum += m.qosAttainmentPct;
            ++qos_count;
        }

        for (const double latency : run[i].latencySec)
            all_latencies.add(latency);
        m.stepLatency = computeLatencyStats(std::move(run[i].latencySec));

        m.energyJ = run[i].energyJ;
        m.switchesIn = run[i].switchesIn;
        out.totalEnergyJ += m.energyJ;
        out.tenants.push_back(std::move(m));
    }
    for (TenantMetrics &m : out.tenants)
        m.energyShare = safeRatio(m.energyJ, out.totalEnergyJ);
    out.meanQosAttainmentPct =
        qos_count > 0 ? qos_sum / double(qos_count) : kNaN;
    out.aggStepLatency = all_latencies.stats();
    return out;
}

std::vector<IterationCost>
isolatedCosts(const ServeSpec &spec, SweepRunner &runner,
              std::string *error)
{
    const std::string cfg_err = spec.config.validationError();
    if (!cfg_err.empty()) {
        *error = "invalid accelerator config: " + cfg_err;
        return {};
    }
    const std::string mix_err =
        spec.workload.validationError(spec.opts.wallLimitSec > 0.0);
    if (!mix_err.empty()) {
        *error = mix_err;
        return {};
    }

    // The substrate this spec needs must be permitted.
    *error = backendListError(spec.backends,
                              spec.chips > 1 ? SweepBackend::kMultiChip
                                             : SweepBackend::kSingleChip);
    if (!error->empty())
        return {};

    std::vector<Scenario> scenarios;
    scenarios.reserve(spec.workload.jobs.size());
    for (const TenantJob &job : spec.workload.jobs)
        scenarios.push_back(
            tenantScenario(spec.config, spec.chips, spec.pod, job));
    const SweepReport report = runner.run(scenarios);

    std::vector<IterationCost> costs;
    costs.reserve(report.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const ScenarioResult &r = report.results[i];
        if (!r.ok()) {
            *error = "tenant '" + spec.workload.jobs[i].name + "': " +
                     r.error;
            return {};
        }
        costs.push_back(iterationCost(r));
    }
    return costs;
}

ServeResult
simulateServe(const ServeSpec &spec, SweepRunner &runner)
{
    ServeResult out = emptyServeResult(spec);
    std::string err;
    const std::vector<IterationCost> costs =
        isolatedCosts(spec, runner, &err);
    if (!err.empty()) {
        out.error = err;
        return out;
    }

    const ContextSwitchModel switches(spec.config, spec.chips);
    return runServeLoop(spec, costs, switches.cost());
}

ServeResult
simulateServe(const ServeSpec &spec)
{
    SweepRunner runner;
    return simulateServe(spec, runner);
}

} // namespace diva
