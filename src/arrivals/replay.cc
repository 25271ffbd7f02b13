#include "arrivals/replay.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tenant/context_switch.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** The report row of a session the controller rejected: no service
 *  window, no steps, NaN rates -- but the job echoed for the report. */
TenantMetrics
rejectedMetrics(const TenantJob &job, const IterationCost &cost)
{
    TenantMetrics m;
    m.job = job;
    m.admitted = false;
    m.resolvedBatch = cost.resolvedBatch > 0 ? cost.resolvedBatch
                                             : job.batch;
    m.endSec = job.arrivalSec;
    m.waitSec = kNaN;
    m.achievedStepsPerSec = 0.0;
    m.isolatedStepsPerSec = safeRatio(1.0, cost.seconds);
    m.slowdown = kNaN;
    m.qosAttainmentPct = kNaN;
    m.stepLatency = computeLatencyStats({});
    return m;
}

} // namespace

ServeResult
serveWithAdmission(const ServeSpec &serve,
                   const AdmissionOptions &admission,
                   SweepRunner &runner)
{
    ServeResult out = emptyServeResult(serve);
    std::string err;
    const std::vector<IterationCost> costs =
        isolatedCosts(serve, runner, &err);
    if (!err.empty()) {
        out.error = err;
        return out;
    }

    // The controller must see the targets the loop will actually
    // enforce, so the fair-share fill runs before pricing demand (the
    // loop's own fill keeps the targets set here).
    ServeSpec priced = serve;
    if (priced.opts.autoQosFairShare)
        fillFairShareQos(priced.workload.jobs, costs);

    const AdmissionDecision decision =
        decideAdmission(priced.workload.jobs, costs, admission);

    // Sequential: one decision batch per replay.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        metrics.addCounter("admission.admitted",
                           decision.admittedCount);
        metrics.addCounter("admission.rejected",
                           decision.rejectedCount);
    }
    if (obs::TraceTrack *track = serve.opts.traceTrack)
        for (std::size_t i = 0; i < priced.workload.jobs.size(); ++i)
            track->instant(priced.workload.jobs[i].arrivalSec,
                           (decision.admitted[i] ? "admit " : "shed ") +
                               priced.workload.jobs[i].name,
                           "admission");

    if (decision.admittedCount == 0) {
        // Nothing feasible: report every session as shed. An empty
        // engine has no makespan, energy, or latency to report.
        for (std::size_t i = 0; i < priced.workload.jobs.size(); ++i)
            out.tenants.push_back(
                rejectedMetrics(priced.workload.jobs[i], costs[i]));
        out.meanQosAttainmentPct = kNaN;
        out.aggStepLatency = LatencyCensus().stats();
        return out;
    }

    // Schedule only the feasible subset, then weave the rejected
    // sessions back into trace order so the report covers the whole
    // trace.
    ServeSpec admitted = priced;
    admitted.workload.jobs.clear();
    std::vector<IterationCost> admitted_costs;
    for (std::size_t i = 0; i < priced.workload.jobs.size(); ++i)
        if (decision.admitted[i]) {
            admitted.workload.jobs.push_back(priced.workload.jobs[i]);
            admitted_costs.push_back(costs[i]);
        }
    const ContextSwitchModel switches(serve.config, serve.chips);
    ServeResult ran =
        runServeLoop(admitted, admitted_costs, switches.cost());
    if (!ran.ok())
        return ran;

    ServeResult merged = ran;
    merged.tenants.clear();
    std::size_t next_admitted = 0;
    for (std::size_t i = 0; i < priced.workload.jobs.size(); ++i) {
        if (decision.admitted[i]) {
            merged.tenants.push_back(ran.tenants[next_admitted++]);
        } else {
            TenantMetrics m =
                rejectedMetrics(priced.workload.jobs[i], costs[i]);
            m.energyShare = safeRatio(0.0, merged.totalEnergyJ);
            merged.tenants.push_back(std::move(m));
        }
    }
    return merged;
}

ServeResult
replayTrace(const ReplaySpec &spec, SweepRunner &runner)
{
    ServeSpec serve;
    serve.workload = spec.trace.workload();
    serve.config = spec.config;
    serve.chips = spec.chips;
    serve.pod = spec.pod;
    serve.policy = spec.policy;
    serve.backends = spec.backends;
    serve.opts = spec.opts;
    serve.opts.openLoop = true;

    const std::string trace_err =
        spec.trace.validationError(serve.opts.wallLimitSec > 0.0);
    if (!trace_err.empty()) {
        ServeResult out = emptyServeResult(serve);
        out.error = trace_err;
        return out;
    }

    if (!spec.admission)
        return simulateServe(serve, runner);
    return serveWithAdmission(serve, spec.admissionOpts, runner);
}

ServeResult
replayTrace(const ReplaySpec &spec)
{
    SweepRunner runner;
    return replayTrace(spec, runner);
}

} // namespace diva
