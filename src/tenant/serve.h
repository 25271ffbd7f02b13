/**
 * @file
 * Event-driven time-sharing serve simulator: N tenant training jobs
 * share one accelerator (or data-parallel pod) under a scheduling
 * policy, with Executor/SimResult iteration costs as the quantum
 * granularity and a context-switch bill charged whenever the running
 * tenant changes.
 *
 * The expensive part -- each tenant's isolated per-iteration cost --
 * is obtained by running ordinary sweep scenarios through a
 * SweepRunner, so tenant serves share the sweep engine's in-memory and
 * on-disk result caches: re-serving a mix under a different policy
 * re-simulates nothing. The scheduling loop itself is sequential,
 * closed-form arithmetic, so serve results are byte-deterministic
 * whatever the runner's thread count.
 */

#ifndef DIVA_TENANT_SERVE_H
#define DIVA_TENANT_SERVE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/percentile.h"
#include "serve_core/core.h"
#include "sim/multichip.h"
#include "sweep/runner.h"
#include "tenant/context_switch.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"

namespace diva
{

namespace obs
{
class TraceTrack;
struct RunTelemetry;
}

/** Serve-loop knobs independent of the workload and platform. */
struct ServeOptions
{
    /** Training iterations per scheduling quantum (>= 1). */
    std::uint64_t quantumIters = 1;

    /**
     * Wall-clock budget in simulated seconds; 0 = run until every
     * bounded tenant completes (duration mode sets this and may leave
     * tenant step counts unbounded).
     */
    double wallLimitSec = 0.0;

    /**
     * Give tenants without an explicit QoS target a fair-share rate
     * target: isolated steps/sec divided by the number of tenants.
     */
    bool autoQosFairShare = false;

    /**
     * Open-loop serving (trace replay): a tenant with a rate target
     * only becomes runnable when its next step is due (arrival +
     * done/rate), i.e. steps are issued by the trace clock rather
     * than back-to-back, and step latency is measured from the due
     * time. Tenants without a rate target are always eligible. Off
     * (closed loop): tenants run whenever scheduled and latency is
     * measured from step eligibility (arrival / previous completion).
     */
    bool openLoop = false;

    /**
     * Optional sim-time trace destination (see obs/trace.h). The
     * serve loop is sequential, so one single-writer track suffices:
     * step spans and context-switch instants land here. Null (the
     * default) disables tracing; results are unaffected either way.
     */
    obs::TraceTrack *traceTrack = nullptr;

    /**
     * Optional windowed-telemetry destination (see obs/slo.h). When
     * set, the loop records each step's exact latency decomposition
     * into per-tenant and per-priority windows, publishes them as
     * `serve.<policy>.`-prefixed series/sketches, and -- when the
     * bundle's SLO spec monitors anything -- fills the attainment
     * report. The window width is resolved from the workload if the
     * caller has not pinned it. Null (the default) disables all of it;
     * serve results are byte-identical either way.
     */
    obs::RunTelemetry *telemetry = nullptr;
};

/** Everything one serve simulation needs. */
struct ServeSpec
{
    TenantWorkload workload;

    /** The shared accelerator design point. */
    AcceleratorConfig config;

    /** Chip count; > 1 time-shares a data-parallel pod. */
    int chips = 1;

    /** Pod link parameters (used when chips > 1). */
    MultiChipConfig pod;

    SchedPolicy policy = SchedPolicy::kRoundRobin;

    /**
     * Simulation backends the serve may price isolated costs on;
     * empty = any. The backend the spec actually needs (kMultiChip
     * when chips > 1, else kSingleChip) must be in the list --
     * otherwise simulateServe returns an error-carrying result.
     */
    std::vector<SweepBackend> backends;

    ServeOptions opts;
};

/** Per-tenant isolated iteration cost feeding the serve loop. */
struct IterationCost
{
    /** Wall-clock seconds of one isolated training iteration. */
    double seconds = 0.0;

    /** Joules of one isolated training iteration. */
    double energyJ = 0.0;

    /** Off-chip bytes of one isolated training iteration. */
    Bytes dramBytes = 0;

    Cycles cycles = 0;

    /** Mini-batch after kAutoBatch resolution. */
    int resolvedBatch = 0;
};

/** The mini-batch `job`'s report row shows: the cost's resolved batch,
 *  or the job's own when pricing resolved none. */
inline int
reportedBatch(const IterationCost &cost, const TenantJob &job)
{
    return cost.resolvedBatch > 0 ? cost.resolvedBatch : job.batch;
}

/** What one tenant experienced over the serve run. */
struct TenantMetrics
{
    /** The job as served (auto QoS targets filled in). */
    TenantJob job;

    int resolvedBatch = 0;

    std::uint64_t stepsDone = 0;

    /** Whether the job's full step budget completed. */
    bool completed = false;

    /** Whether the tenant left at departSec with steps outstanding. */
    bool departed = false;

    /**
     * Whether the admission controller let the tenant in. Always true
     * for serves without admission control; rejected tenants keep
     * their row with zero steps and NaN rates.
     */
    bool admitted = true;

    /**
     * End of the tenant's service window: completion time if it
     * completed, else its departure, else the end of the simulation.
     */
    double endSec = 0.0;

    /** Seconds between arrival and first scheduled step (NaN if none). */
    double waitSec = 0.0;

    /** stepsDone over the service window (arrival -> endSec). */
    double achievedStepsPerSec = 0.0;

    /** Steps/sec the tenant would sustain alone on the accelerator. */
    double isolatedStepsPerSec = 0.0;

    /**
     * isolated rate / achieved rate (>= 1 when sharing hurts); NaN
     * when the achieved rate is zero or non-finite.
     */
    double slowdown = 0.0;

    /**
     * QoS attainment in percent: of the steps the target demanded by
     * endSec, the share that completed by their deadline (capped at
     * 100). NaN for tenants without a target or before the target
     * demands anything.
     */
    double qosAttainmentPct = 0.0;

    /**
     * Exact-sort tail latency of this tenant's executed steps. Open
     * loop measures completion minus the step's due time; closed loop
     * measures completion minus eligibility (arrival or previous
     * completion). count 0 / NaN stats when no step ran.
     */
    LatencyStats stepLatency;

    /** Joules consumed: executed steps + switches into this tenant. */
    double energyJ = 0.0;

    /** energyJ over the run's total joules (NaN if total is zero). */
    double energyShare = 0.0;

    /** Context switches that loaded this tenant onto the engine. */
    std::uint64_t switchesIn = 0;
};

/** Outcome of one serve simulation. */
struct ServeResult
{
    /** Inputs echoed for reporting. */
    std::string workloadName;
    std::string configName;
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    int chips = 1;
    std::uint64_t quantumIters = 1;
    double wallLimitSec = 0.0;

    std::vector<TenantMetrics> tenants;

    /** End of the last serviced work (switches included). */
    double makespanSec = 0.0;

    /** Joules over the whole run (tenant energies sum to this). */
    double totalEnergyJ = 0.0;

    std::uint64_t contextSwitches = 0;

    /** Time / energy / traffic lost to context switches. */
    double switchSec = 0.0;
    double switchEnergyJ = 0.0;
    Bytes switchDramBytes = 0;

    /** Mean attainment over tenants with targets; NaN if none. */
    double meanQosAttainmentPct = 0.0;

    /** Tail latency over every executed step of every tenant. */
    LatencyStats aggStepLatency;

    /**
     * serve_core event counters for this run (steps, dispatches,
     * coalesced quanta, promotions, idle jumps, switches, retires).
     * Reporting-only: not emitted in CSV/JSON, surfaced by bench_serve.
     */
    serve_core::Counters coreCounters;

    /** Non-empty when the serve could not run (bad spec, sim error). */
    std::string error;

    bool ok() const { return error.empty(); }

    /** Tenants the admission controller let in (all, without one). */
    std::size_t admittedCount() const;
};

/**
 * num / den with the zero/non-finite denominator guarded to NaN
 * (rendered as "nan" in CSV and null in JSON by the emit helpers).
 */
double safeRatio(double num, double den);

/**
 * Score one served session into `m` (a TenantMetrics or a
 * FleetTenantMetrics) from its final serve-core state: whether it
 * departed, the end of its service window, its achieved and isolated
 * steps/sec and its QoS attainment. `stepSec` is the session's
 * isolated iteration time, `wallSec` the wall budget (0 = none) and
 * `makespanSec` the end of the run. One definition for the tenant
 * serve loop and the fleet engine, inline because the fleet calls it
 * once per session.
 */
template <class Metrics>
inline void
scoreSession(Metrics &m, const TenantJob &job,
             const serve_core::TaskCore &core, double stepSec,
             double wallSec, double makespanSec)
{
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    // Departed: the session ended with steps outstanding and its
    // departure (not the wall budget) is what ended it.
    m.departed = !core.completed && job.departSec > 0.0 &&
                 (wallSec <= 0.0 ||
                  job.departSec < wallSec + serve_core::kEps);
    m.endSec = core.completed
                   ? core.completionSec
                   : (m.departed ? std::min(job.departSec, makespanSec)
                                 : makespanSec);
    const double window = std::max(0.0, m.endSec - job.arrivalSec);
    m.achievedStepsPerSec =
        window > 0.0 ? double(core.done) / window
                     : (core.done > 0 ? serve_core::kInfSec : 0.0);
    m.isolatedStepsPerSec = safeRatio(1.0, stepSec);

    // QoS attainment: of the steps the target demanded by endSec, the
    // share that met their deadline.
    double demanded = kNaN;
    if (job.qosStepsPerSec > 0.0) {
        demanded = core.completed
                       ? double(job.steps)
                       : std::floor(window * job.qosStepsPerSec);
        if (job.steps > 0)
            demanded = std::min(demanded, double(job.steps));
    } else if (job.qosDeadlineSec > 0.0) {
        // Deadline targets are validated to have bounded steps;
        // nothing is demanded until the deadline has passed.
        if (core.completed || job.qosDeadlineSec <= m.endSec)
            demanded = double(job.steps);
    }
    m.qosAttainmentPct =
        std::isfinite(demanded) && demanded > 0.0
            ? 100.0 * std::min(1.0, double(core.metDeadlines) / demanded)
            : kNaN;
}

/** Add the serve core's event counters to the metrics registry under
 *  `serve_core.*` (the caller checks that the registry is enabled). */
void publishCoreCounters(const serve_core::Counters &c);

/** A result echoing the spec's inputs, with no tenants yet. */
ServeResult emptyServeResult(const ServeSpec &spec);

/**
 * The autoQosFairShare fill: every job without a QoS target gets its
 * isolated rate (from costs[i]) divided by the number of jobs. Jobs
 * that already carry a target keep it.
 */
void fillFairShareQos(std::vector<TenantJob> &jobs,
                      const std::vector<IterationCost> &costs);

/**
 * The scheduling loop alone, over explicit per-tenant iteration costs
 * (costs[i] belongs to workload.jobs[i]) and an explicit switch bill.
 * Exposed for tests and custom cost models; validates the spec and
 * costs, returning an error-carrying result instead of running on bad
 * input.
 */
ServeResult runServeLoop(const ServeSpec &spec,
                         const std::vector<IterationCost> &costs,
                         const SwitchCost &switchCost);

/**
 * Each tenant's isolated iteration cost, priced by running its sweep
 * scenario through `runner` (cache-, disk-cache- and thread-pool-
 * aware). Validates the spec's config, workload and backend list
 * first; on any failure returns an empty vector and sets *error.
 * Exposed so the arrival-trace replay engine can price tenants (and
 * decide admission) without re-implementing the pipeline.
 */
std::vector<IterationCost> isolatedCosts(const ServeSpec &spec,
                                         SweepRunner &runner,
                                         std::string *error);

/**
 * Full pipeline: derive each tenant's isolated iteration cost by
 * running its sweep scenario through `runner` (cache-, disk-cache- and
 * thread-pool-aware), derive the switch bill from the spec's
 * accelerator, then run the scheduling loop.
 */
ServeResult simulateServe(const ServeSpec &spec, SweepRunner &runner);

/** Convenience overload with a private single-threaded runner. */
ServeResult simulateServe(const ServeSpec &spec);

/**
 * The sweep scenario whose result prices one iteration of `job` on
 * `chips` chips of `config` (a data-parallel pod over `pod` when
 * chips > 1). The tenant serve and the fleet engine both price here.
 */
Scenario tenantScenario(const AcceleratorConfig &config, int chips,
                        const MultiChipConfig &pod, const TenantJob &job);

/** The iteration cost a successful scenario result reports. */
IterationCost iterationCost(const ScenarioResult &r);

/**
 * "" when the backend a run needs (`needed`) is in `allowed` -- an
 * empty list allows any backend; otherwise the error.
 */
std::string backendListError(const std::vector<SweepBackend> &allowed,
                             SweepBackend needed);

} // namespace diva

#endif // DIVA_TENANT_SERVE_H
