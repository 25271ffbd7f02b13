#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "arrivals/admission.h"
#include "common/task_pool.h"
#include "fleet/energy_budget.h"
#include "fleet/migration.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "tenant/context_switch.h"
#include "tenant/serve.h"

namespace diva
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** FleetSim::decided's mark for an arrival no pod could take. */
constexpr std::uint32_t kRejected = std::uint32_t(-1);

using serve_core::kEps;
using serve_core::TaskState;

/** FNV-1a over the fields that identify a job class.  Buckets only --
 *  candidates are confirmed field-by-field, so a collision costs one
 *  extra compare, never a wrong class. */
std::uint64_t
jobClassHash(const TenantJob &job)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (const unsigned char c : job.model)
        mix(c);
    mix(std::uint64_t(job.modelScale));
    mix(std::uint64_t(job.batch));
    mix(std::uint64_t(job.microbatch));
    mix(std::uint64_t(job.algorithm));
    return h;
}

bool
sameJobClass(const TenantJob &a, const TenantJob &b)
{
    return a.modelScale == b.modelScale && a.batch == b.batch &&
           a.microbatch == b.microbatch &&
           a.algorithm == b.algorithm && a.model == b.model;
}

/** Mutable per-tenant state tracked by the fleet engine. */
struct TenantRt
{
    // Cached job scalars (hot path avoids chasing the TenantJob).
    double arrival = 0.0;
    double depart = 0.0;
    double rate = 0.0; // qosStepsPerSec; > 0 gates steps open-loop
    double qosDeadline = 0.0;
    std::uint64_t steps = 0;
    int priority = 0;
    std::uint32_t cls = 0;

    std::size_t pod = kNoPod;
    bool admitted = true;

    /** Scheduling state (queue membership, generation, step counts),
     *  owned by the shared event core. */
    serve_core::TaskCore core;

    /** Earliest restart after a migration's state transfer. */
    double gateUntil = 0.0;

    double energyJ = 0.0;
    std::uint32_t switchesIn = 0;
    std::uint32_t migrations = 0;
    std::uint32_t suspensions = 0;
    double migSec = 0.0;
    double migEnergyJ = 0.0;

    /** Busy seconds this control epoch (rebalance's migration metric). */
    double epochBusySec = 0.0;
    std::uint64_t busyStamp = ~std::uint64_t(0);

    /** Start of this tenant's slice in FleetSim::latArena (valid when
     *  steps > 0; step k's latency lands in slot latOff + k - 1). */
    std::size_t latOff = 0;

    /** Index into FleetSim::prioValues (telemetry runs only). */
    std::uint32_t prioSlot = 0;

    /** Overflow store for unbounded sessions (steps == 0), whose
     *  sample count has no a-priori cap. */
    std::vector<double> latencySec;
};

/** One pod's per-window telemetry accumulator: event counts, busy
 *  seconds and joules landed in the window, plus the queue-depth /
 *  gated-count gauges sampled at the window's first billable event. */
struct PodObsRow
{
    std::int64_t w = 0;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    double busySec = 0.0;
    double energyJ = 0.0;
    double queueDepth = 0.0;
    double gated = 0.0;
};

/** Mutable per-pod state; epochs touch only their own pod's. */
struct PodRt
{
    std::uint32_t type = 0;

    /** The pod's serving executor (clock, ready set, arrival cursor,
     *  gated heap), owned by the shared event core; `core.id` is the
     *  pod index. */
    serve_core::Executor core;

    /** Every tenant ever assigned here (lazily compacted). */
    std::vector<std::uint32_t> members;

    // Run accumulators.
    std::size_t placed = 0;
    std::size_t migIn = 0;
    std::size_t migOut = 0;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    double busySec = 0.0;
    double energyJ = 0.0;
    double switchSec = 0.0;
    double switchEnergyJ = 0.0;
    double migSec = 0.0;
    double migEnergyJ = 0.0;
    Bytes migBytes = 0;
    double lastActiveSec = 0.0;

    // Per-epoch scratch.
    double epochBusySec = 0.0;
    std::uint64_t epochSteps = 0;
    std::size_t finishedThisEpoch = 0;

    /** Census of the step latencies served here, written only by the
     *  lane serving this pod. */
    LatencyCensus latency;

    // Windowed telemetry (telemetry runs only). All pod-owned:
    // written by whichever worker runs this pod's epoch -- the pod
    // clock is monotone, so obsRows flush in increasing window order
    // -- and merged sequentially in pod-index order at assemble.
    bool obsOpen = false;
    PodObsRow obsCur;
    /** Upper edge of the open window. Events roll the row with one FP
     *  compare against this instead of recomputing their window index
     *  (windowUpperEdge makes the compare bitwise-equivalent to the
     *  floor). +inf when telemetry is off, so the hot-path compare
     *  never fires; telemetry setup drops it to -inf to force the
     *  first roll. */
    double obsEdgeSec = kInf;
    std::vector<PodObsRow> obsRows;
    /** Cumulative-counter snapshots taken when the open row rolled;
     *  the row's counters are the deltas since then, so the step/
     *  switch hot paths never touch the row itself. */
    std::uint64_t obsBaseSteps = 0;
    std::uint64_t obsBaseSwitches = 0;
    double obsBaseBusySec = 0.0;
    double obsBaseEnergyJ = 0.0;
    std::vector<obs::ComponentWindows> latWindows; // one per prioSlot
    std::uint64_t decompFailures = 0;
};

/** Run the callable over [0, count) pod indices on up to `threads`
 *  persistent pool lanes (trivial runs execute inline -- see
 *  TaskPool::parallelFor).  Each index touches disjoint state, so any
 *  schedule is race-free and the simulation output does not depend on
 *  the thread count. */
template <typename Fn>
void
forEachPod(std::size_t count, int threads, Fn fn)
{
    TaskPool::shared().parallelFor(count, threads, fn);
}

/** The whole simulation state, shared by the engine's phases. */
struct FleetSim
{
    const FleetSpec &spec;
    const ArrivalTrace &trace;
    FleetResult &out;

    std::size_t n = 0;
    double wall = 0.0;

    // Pod types (deduped design points) and tenant classes (deduped
    // workloads); costs[type * numCls + cls] prices one iteration.
    std::vector<std::uint32_t> podType;
    std::vector<PodSpec> types;
    std::vector<std::uint32_t> jobCls;
    std::size_t numCls = 0;
    std::vector<IterationCost> costs;
    std::vector<SwitchCost> switchCosts;         // per type
    std::vector<MigrationCost> migCosts;         // type x type
    std::vector<double> isoRate;                 // per (type, cls)

    std::vector<TenantRt> tenants;
    std::vector<PodRt> pods;

    /** Per-tenant step-latency slices, packed by arrival order (slice
     *  i starts at tenants[i].latOff, one slot per budgeted step).
     *  Direct indexed stores -- pods write disjoint tenants' slices --
     *  replace 200k per-tenant realloc chains on the hot path.  Left
     *  uninitialized: onStep writes slot latOff + done - 1 before
     *  anything reads it, and readers take exactly [latOff, latOff +
     *  done), so the pages are first touched by the parallel epochs. */
    std::unique_ptr<double[]> latArena;

    /**
     * Placement projection.  A decision reads only this projection,
     * the prices and the immutable per-tenant arrival/depart/steps/
     * rate/class -- never served state -- so the decision sequence is
     * a pure function of trace + prices.  That lets one lane decide
     * the next epoch's arrivals while the pods serve the current one
     * (see run()); exactly one lane decides at a time, in arrival
     * order.  decided[i] is arrival i's pod, or kRejected.
     */
    std::vector<PodLoadView> loadViews;
    std::vector<std::uint32_t> decided;
    std::size_t decideCursor = 0;

    /**
     * Projected session end, across all pods in one min-heap ordered
     * (end, pod, demand).  Per pod that is exactly the (end, demand)
     * pair order of the per-pod heaps this replaces -- the demand
     * subtractions replay in the same sequence, so every projected
     * load float is bit-identical -- but retiring expired demand costs
     * one heap peek per arrival instead of a scan over every pod.
     */
    struct ExpiryEntry
    {
        double endSec = 0.0;
        std::uint32_t pod = 0;
        double demand = 0.0;

        bool operator>(const ExpiryEntry &o) const
        {
            if (endSec != o.endSec)
                return endSec > o.endSec;
            if (pod != o.pod)
                return pod > o.pod;
            return demand > o.demand;
        }
    };
    std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                        std::greater<ExpiryEntry>>
        expiry;
    /** Next arrival to apply (apply runs sequentially, between
     *  epochs; decideCursor >= placeCursor always). */
    std::size_t placeCursor = 0;

    // Placement scratch, hoisted out of the per-arrival hot path.
    std::vector<double> typeDemand;
    std::vector<double> typeEnergy;

    // Control-round scratch, reused across epochs (capacity persists).
    std::vector<TenantPowerView> powerViews;
    std::vector<std::uint32_t> powerActive;
    std::vector<double> utilScratch;

    std::size_t unfinished = 0;
    std::uint64_t epochId = 0;

    /** Control-epoch width (+inf: one uninterrupted epoch). */
    double interval = kInf;

    /** Mode flags for the shared event core (fleet semantics). */
    serve_core::Config coreCfg;

    /**
     * Optional sim-time trace. The control track (tid 0) is written
     * only from sequential boundary code; podTracks[p] (tid p+1) only
     * from whichever worker owns pod p's epoch -- single-writer per
     * track, as obs/trace.h requires.
     */
    obs::TraceSink *sink = nullptr;
    obs::TraceTrack *control = nullptr;
    std::vector<obs::TraceTrack *> podTracks;

    /**
     * Optional windowed telemetry. Hot-path hooks accumulate into the
     * executing pod's own state (PodRt) only; the cluster maps below
     * are written solely from sequential boundary code (placement,
     * budget, rebalance), and everything merges into the bundle at
     * the sequential assemble publish point.
     */
    obs::RunTelemetry *telemetry = nullptr;
    std::vector<int> prioValues; ///< distinct priorities, ascending
    std::map<std::int64_t, double> wPlaced, wRejected, wMigrations,
        wSuspensions, wResumes;

    /** Close the open row, filling its counters from the pod's
     *  cumulative accumulators (delta since the row opened), and
     *  rebase the snapshots. Steps and switches bill themselves to
     *  the open window by bumping only the run-level counters;
     *  control-plane contributions (a migration transfer's busy and
     *  energy seconds) fold into whichever window is open -- or next
     *  opens -- on the destination pod when they land. */
    void
    flushObsRow(PodRt &pod)
    {
        if (pod.obsOpen) {
            pod.obsCur.steps = pod.steps - pod.obsBaseSteps;
            pod.obsCur.switches =
                pod.switches - pod.obsBaseSwitches;
            pod.obsCur.busySec = pod.busySec - pod.obsBaseBusySec;
            pod.obsCur.energyJ = pod.energyJ - pod.obsBaseEnergyJ;
            pod.obsRows.push_back(pod.obsCur);
            pod.obsOpen = false;
        }
        pod.obsBaseSteps = pod.steps;
        pod.obsBaseSwitches = pod.switches;
        pod.obsBaseBusySec = pod.busySec;
        pod.obsBaseEnergyJ = pod.energyJ;
    }

    /** Open the window holding the pod clock. Callers check the edge
     *  BEFORE the event's accumulators land, so the cumulative-delta
     *  row attributes the triggering event to its own window. */
    void
    rollObsRow(PodRt &pod, const serve_core::Executor &ex)
    {
        flushObsRow(pod);
        const std::int64_t w =
            obs::windowIndexOf(ex.nowSec, telemetry->invWindowSec);
        pod.obsCur = PodObsRow{};
        pod.obsCur.w = w;
        pod.obsCur.queueDepth = double(ex.ready.size());
        pod.obsCur.gated = double(ex.gated.size());
        pod.obsOpen = true;
        pod.obsEdgeSec = obs::windowUpperEdge(
            w, telemetry->windowSec, telemetry->invWindowSec);
    }

    void
    bumpCluster(std::map<std::int64_t, double> &series, double tSec)
    {
        if (telemetry)
            ++series[obs::windowIndexOf(tSec,
                                        telemetry->invWindowSec)];
    }

    FleetSim(const FleetSpec &s, const ArrivalTrace &t, FleetResult &o)
        : spec(s), trace(t), out(o)
    {
    }

    const IterationCost &costOf(std::uint32_t type,
                                std::uint32_t cls) const
    {
        return costs[std::size_t(type) * numCls + cls];
    }

    // serve_core client interface (see serve_core::runUntil). FleetSim
    // is the client for every pod's executor; epochs run pods in
    // parallel, so these must only touch the executor's own pod state
    // and the tenants it owns. `owns` reads rt.pod, which is written
    // only at sequential epoch boundaries and is therefore race-free
    // even while another pod's epoch mutates the tenant's gen/state.
    bool owns(const serve_core::Executor &ex, std::uint32_t idx) const
    {
        return tenants[idx].pod == ex.id;
    }
    double arrivalSec(std::uint32_t i) const
    {
        return tenants[i].arrival;
    }
    double departSec(std::uint32_t i) const
    {
        return tenants[i].depart;
    }
    double rateSps(std::uint32_t i) const { return tenants[i].rate; }
    double qosDeadlineSec(std::uint32_t i) const
    {
        return tenants[i].qosDeadline;
    }
    std::uint64_t stepLimit(std::uint32_t i) const
    {
        return tenants[i].steps;
    }
    int priority(std::uint32_t i) const
    {
        return tenants[i].priority;
    }
    double stepSeconds(const serve_core::Executor &ex,
                       std::uint32_t i) const
    {
        return costOf(pods[ex.id].type, tenants[i].cls).seconds;
    }
    double switchSeconds(const serve_core::Executor &ex) const
    {
        return switchCosts[pods[ex.id].type].seconds;
    }
    serve_core::TaskCore &core(std::uint32_t i)
    {
        return tenants[i].core;
    }
    const serve_core::TaskCore &core(std::uint32_t i) const
    {
        return tenants[i].core;
    }
    void onSwitch(serve_core::Executor &ex, std::uint32_t i);
    void onStep(serve_core::Executor &ex, std::uint32_t i,
                double stepStartSec, double latencySec,
                double eligibleSec, double switchLeadSec);
    void onRetire(serve_core::Executor &ex, std::uint32_t i);

    /** Price every (pod type, tenant class) pair through the runner. */
    std::string price(SweepRunner &runner);

    void decideOne(std::size_t i);
    void decideUntil(double limitSec);
    void apply(std::size_t i);
    void runPodEpoch(std::size_t p, double t1);

    void suspendTenant(std::uint32_t idx);
    void resumeTenant(std::uint32_t idx);
    void enforceBudget(double nowSec, double intervalSec);
    std::size_t rebalanceRound(double nowSec, double widthSec);
    void migrate(std::uint32_t idx, std::size_t srcP, std::size_t dstP,
                 double nowSec);

    double globalNextEventSec();
    double totalEnergySoFar() const;

    void setup();
    void run(int threads);
    void assemble(int threads);
    void publishTelemetry();
};

std::string
FleetSim::price(SweepRunner &runner)
{
    // Dedupe pods into types on the exact design key. Its pod part is
    // written for one-chip pods too, since migration prices every
    // pod's link.
    std::map<std::string, std::uint32_t> typeOf;
    podType.resize(spec.pods.size());
    for (std::size_t p = 0; p < spec.pods.size(); ++p) {
        const PodSpec &ps = spec.pods[p];
        MultiChipConfig link = ps.pod;
        link.numChips = ps.chips;
        std::string key;
        appendDesignKey(key, SweepBackend::kMultiChip, ps.config, link,
                        GpuConfig{});
        const auto [it, fresh] =
            typeOf.emplace(std::move(key), std::uint32_t(types.size()));
        if (fresh)
            types.push_back(ps);
        podType[p] = it->second;
    }

    // Dedupe jobs into classes.  Class ids are assigned in first-
    // appearance order, and the hash only buckets candidates (equality
    // is confirmed on the fields), so the numbering is identical to
    // the string-keyed dedup this replaces -- without rendering a key
    // string per session on a hot path that sees the whole trace.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> clsOf;
    jobCls.resize(n);
    std::vector<const TenantJob *> clsRep;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantJob &job = trace.jobs[i];
        std::vector<std::uint32_t> &bucket = clsOf[jobClassHash(job)];
        std::uint32_t cls = std::uint32_t(-1);
        for (const std::uint32_t c : bucket)
            if (sameJobClass(*clsRep[c], job)) {
                cls = c;
                break;
            }
        if (cls == std::uint32_t(-1)) {
            cls = std::uint32_t(clsRep.size());
            clsRep.push_back(&job);
            bucket.push_back(cls);
        }
        jobCls[i] = cls;
    }
    numCls = clsRep.size();

    // Every substrate the pods need must be permitted. Types are in
    // first-pod order, so the first failing type reports the first
    // failing pod's need.
    for (const PodSpec &type : types) {
        const std::string err =
            backendListError(spec.backends, type.backend());
        if (!err.empty())
            return err;
    }

    // One scenario per (type, class), all through one run() so the
    // runner's thread pool and caches do the heavy lifting.
    std::vector<Scenario> scenarios;
    scenarios.reserve(types.size() * numCls);
    for (const PodSpec &type : types)
        for (const TenantJob *job : clsRep)
            scenarios.push_back(
                tenantScenario(type.config, type.chips, type.pod, *job));
    const SweepReport report = runner.run(scenarios);
    out.planHits = report.planHits;
    out.planMisses = report.planMisses;

    costs.resize(report.results.size());
    isoRate.resize(report.results.size());
    for (std::size_t k = 0; k < report.results.size(); ++k) {
        const ScenarioResult &r = report.results[k];
        const PodSpec &type = types[k / numCls];
        const TenantJob *job = clsRep[k % numCls];
        std::ostringstream where;
        where << "pod type '" << type.config.name << " x" << type.chips
              << "' class '" << job->model << "'";
        if (!r.ok())
            return where.str() + ": " + r.error;
        if (!(r.seconds > 0.0) || !std::isfinite(r.seconds) ||
            !(r.energyJ >= 0.0) || !std::isfinite(r.energyJ))
            return where.str() +
                   ": iteration cost must be positive and finite";
        costs[k] = iterationCost(r);
        isoRate[k] = 1.0 / r.seconds;
    }

    switchCosts.reserve(types.size());
    for (const PodSpec &type : types)
        switchCosts.push_back(
            ContextSwitchModel(type.config, type.chips,
                               spec.workingSetFraction)
                .cost());
    migCosts.resize(types.size() * types.size());
    for (std::size_t s = 0; s < types.size(); ++s)
        for (std::size_t d = 0; d < types.size(); ++d)
            migCosts[s * types.size() + d] = migrationCost(
                types[s], types[d], spec.workingSetFraction);
    return "";
}

void
FleetSim::decideOne(std::size_t i)
{
    const TenantJob &job = trace.jobs[i];
    const TenantRt &rt = tenants[i];
    const double a = rt.arrival;

    // Retire projected demand whose sessions have ended by now.
    while (!expiry.empty() && expiry.top().endSec <= a + kEps) {
        const ExpiryEntry &e = expiry.top();
        loadViews[e.pod].demand =
            std::max(0.0, loadViews[e.pod].demand - e.demand);
        if (loadViews[e.pod].sessions > 0)
            --loadViews[e.pod].sessions;
        expiry.pop();
    }

    // Price the arrival's demand and joules/step once per pod type.
    typeDemand.resize(types.size());
    typeEnergy.resize(types.size());
    for (std::size_t t = 0; t < types.size(); ++t) {
        const IterationCost &c =
            costOf(std::uint32_t(t), rt.cls);
        typeDemand[t] = qosUtilizationDemand(job, c);
        typeEnergy[t] = c.energyJ;
    }

    const std::size_t chosen =
        choosePod(spec.placement, loadViews, podType, typeDemand,
                  typeEnergy, spec.podDemandCap);
    if (chosen == kNoPod) {
        decided[i] = kRejected;
        return;
    }
    decided[i] = std::uint32_t(chosen);

    const std::uint32_t type = podType[chosen];
    const double d = typeDemand[type];
    loadViews[chosen].demand += d;
    ++loadViews[chosen].sessions;
    const double step_sec = costOf(type, rt.cls).seconds;
    double end = kInf;
    if (rt.depart > 0.0)
        end = rt.depart;
    else if (rt.steps > 0 && rt.rate > 0.0)
        end = a + double(rt.steps) / rt.rate;
    else if (rt.steps > 0)
        end = a + double(rt.steps) * step_sec;
    if (std::isfinite(end))
        expiry.push({end, std::uint32_t(chosen), d});
}

void
FleetSim::decideUntil(double limitSec)
{
    while (decideCursor < n &&
           trace.jobs[decideCursor].arrivalSec < limitSec)
        decideOne(decideCursor++);
}

void
FleetSim::apply(std::size_t i)
{
    const TenantJob &job = trace.jobs[i];
    TenantRt &rt = tenants[i];
    const double a = rt.arrival;
    const std::uint32_t chosen = decided[i];
    if (chosen == kRejected) {
        rt.admitted = false;
        rt.core.state = TaskState::kDone;
        ++out.rejectedCount;
        --unfinished;
        bumpCluster(wRejected, a);
        if (control)
            control->instant(a, "reject " + job.name, "admission");
        return;
    }

    rt.pod = chosen;
    PodRt &pod = pods[chosen];
    ++pod.placed;
    pod.core.arrivals.push_back(std::uint32_t(i));
    pod.members.push_back(std::uint32_t(i));
    bumpCluster(wPlaced, a);
    if (control)
        control->instant(a,
                         "place " + job.name + " -> " +
                             spec.pods[chosen].name,
                         "placement");
}

void
FleetSim::onSwitch(serve_core::Executor &ex, std::uint32_t i)
{
    // Bill the tenant change (the core already advanced the clock by
    // the stall): the engine idles while the outgoing working set
    // flushes and the incoming one loads.
    PodRt &pod = pods[ex.id];
    TenantRt &rt = tenants[i];
    const SwitchCost &sw = switchCosts[pod.type];
    if (ex.nowSec >= pod.obsEdgeSec)
        rollObsRow(pod, ex);
    ++pod.switches;
    ++rt.switchesIn;
    pod.switchSec += sw.seconds;
    pod.switchEnergyJ += sw.energyJ;
    pod.busySec += sw.seconds;
    pod.epochBusySec += sw.seconds;
    pod.energyJ += sw.energyJ;
    rt.energyJ += sw.energyJ;
    pod.lastActiveSec = ex.nowSec;
    if (sink)
        podTracks[ex.id]->instant(
            ex.nowSec, "switch -> " + trace.jobs[i].name, "switch");
}

void
FleetSim::onStep(serve_core::Executor &ex, std::uint32_t i,
                 double stepStartSec, double latencySec,
                 double eligibleSec, double switchLeadSec)
{
    PodRt &pod = pods[ex.id];
    TenantRt &rt = tenants[i];
    const IterationCost &cost = costOf(pod.type, rt.cls);
    if (ex.nowSec >= pod.obsEdgeSec)
        rollObsRow(pod, ex);
    pod.busySec += cost.seconds;
    pod.epochBusySec += cost.seconds;
    pod.energyJ += cost.energyJ;
    rt.energyJ += cost.energyJ;
    if (rt.busyStamp != epochId) {
        rt.busyStamp = epochId;
        rt.epochBusySec = 0.0;
    }
    rt.epochBusySec += cost.seconds;
    ++pod.steps;
    ++pod.epochSteps;
    // Step tc.done just ran (the core bumps `done` before this hook),
    // so bounded sessions store straight into their arena slice.
    if (rt.steps > 0)
        latArena[rt.latOff + rt.core.done - 1] = latencySec;
    else
        rt.latencySec.push_back(latencySec);
    pod.latency.add(latencySec);
    pod.lastActiveSec = ex.nowSec;
    if (telemetry) {
        // Stall overlaps: the switch billed immediately ahead of this
        // step, and the part of the wait spent in this tenant's
        // migration state transfer. Most steps have neither, so the
        // overlap arithmetic stays off the common path.
        // decompSteps is derived at publish (it equals the recorded
        // window steps), so the hot path only tracks failures -- a
        // never-taken branch when the invariant holds. The stall-free
        // residual check q + s == T IS the fixed-order reconstruction
        // (the zero components add nothing), so the common case needs
        // no LatencyComponents round trip at all.
        const double q = latencySec - cost.seconds;
        if (switchLeadSec == 0.0 && rt.gateUntil <= eligibleSec &&
            q + cost.seconds == latencySec) {
            pod.latWindows[rt.prioSlot].recordAtFast(
                pod.obsCur.w, latencySec, q, cost.seconds);
        } else {
            const double wait =
                std::max(0.0, stepStartSec - eligibleSec);
            const double sw_ov = std::min(switchLeadSec, wait);
            const double mig_ov = std::clamp(
                rt.gateUntil - eligibleSec, 0.0, wait - sw_ov);
            obs::LatencyComponents comp;
            if (!obs::decomposeLatencyAudited(latencySec,
                                              cost.seconds, sw_ov,
                                              mig_ov, &comp))
                ++pod.decompFailures;
            pod.latWindows[rt.prioSlot].recordAt(pod.obsCur.w,
                                                 latencySec, comp);
        }
    }
    if (sink)
        podTracks[ex.id]->span(stepStartSec,
                               stepStartSec + cost.seconds,
                               trace.jobs[i].name, "step");
}

void
FleetSim::onRetire(serve_core::Executor &ex, std::uint32_t)
{
    ++pods[ex.id].finishedThisEpoch;
}

void
FleetSim::runPodEpoch(std::size_t p, double t1)
{
    PodRt &pod = pods[p];
    pod.epochBusySec = 0.0;
    pod.epochSteps = 0;
    pod.finishedThisEpoch = 0;
    serve_core::runUntil(*this, pod.core, coreCfg, t1);
}

void
FleetSim::suspendTenant(std::uint32_t idx)
{
    TenantRt &rt = tenants[idx];
    serve_core::unschedule(*this, pods[rt.pod].core, idx);
    rt.core.state = TaskState::kSuspended;
}

void
FleetSim::resumeTenant(std::uint32_t idx)
{
    TenantRt &rt = tenants[idx];
    const double due =
        rt.rate > 0.0 ? rt.arrival + double(rt.core.done) / rt.rate
                      : rt.arrival;
    serve_core::gate(*this, pods[rt.pod].core, idx,
                     std::max(due, rt.gateUntil));
}

void
FleetSim::enforceBudget(double nowSec, double intervalSec)
{
    const double capW =
        effectivePowerCapW(spec.budget.powerCapW, spec.budget.totalJ,
                           totalEnergySoFar(), intervalSec);
    if (capW < 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            if (tenants[i].core.state == TaskState::kSuspended)
                resumeTenant(std::uint32_t(i));
        return;
    }

    std::vector<TenantPowerView> &views = powerViews;
    std::vector<std::uint32_t> &active = powerActive;
    views.clear();
    active.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const TenantRt &rt = tenants[i];
        if (!rt.admitted || rt.core.state == TaskState::kDone ||
            rt.arrival > nowSec + kEps)
            continue;
        const IterationCost &c = costOf(pods[rt.pod].type, rt.cls);
        const double iso = 1.0 / c.seconds;
        const double sustained =
            rt.rate > 0.0 ? std::min(rt.rate, iso) : iso;
        TenantPowerView v;
        v.watts = sustained * c.energyJ;
        v.priority = rt.priority;
        v.arrivalSec = rt.arrival;
        views.push_back(v);
        active.push_back(std::uint32_t(i));
    }

    const std::vector<std::size_t> suspend =
        chooseSuspensions(views, capW);
    std::size_t s = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
        const bool want = s < suspend.size() && suspend[s] == k;
        if (want)
            ++s;
        TenantRt &rt = tenants[active[k]];
        if (want) {
            ++rt.suspensions;
            ++out.suspensions;
            bumpCluster(wSuspensions, nowSec);
            if (rt.core.state != TaskState::kSuspended)
                suspendTenant(active[k]);
            if (control)
                control->instant(nowSec,
                                 "suspend " + trace.jobs[active[k]].name,
                                 "budget");
        } else if (rt.core.state == TaskState::kSuspended) {
            resumeTenant(active[k]);
            bumpCluster(wResumes, nowSec);
            if (control)
                control->instant(nowSec,
                                 "resume " + trace.jobs[active[k]].name,
                                 "budget");
        }
    }
}

void
FleetSim::migrate(std::uint32_t idx, std::size_t srcP,
                  std::size_t dstP, double nowSec)
{
    TenantRt &rt = tenants[idx];
    PodRt &src = pods[srcP];
    PodRt &dst = pods[dstP];

    serve_core::unschedule(*this, src.core, idx);
    if (src.core.last == idx)
        src.core.last = serve_core::kNoTask;

    const MigrationCost &mc =
        migCosts[std::size_t(src.type) * types.size() + dst.type];
    rt.pod = dstP;
    ++rt.migrations;
    rt.migSec += mc.seconds;
    rt.migEnergyJ += mc.energyJ;
    rt.energyJ += mc.energyJ;

    ++src.migOut;
    ++dst.migIn;
    dst.migSec += mc.seconds;
    dst.migEnergyJ += mc.energyJ;
    dst.migBytes += mc.dramBytes;
    dst.energyJ += mc.energyJ;
    dst.busySec += mc.seconds;
    // The transfer occupies [nowSec, nowSec + mc.seconds]; extend the
    // pod's active span so utilization = busySec / makespan stays <= 1
    // when a migration lands after the pod's last step.
    dst.lastActiveSec =
        std::max(dst.lastActiveSec, nowSec + mc.seconds);
    dst.members.push_back(idx);
    ++out.migrations;
    out.migrationSec += mc.seconds;
    out.migrationEnergyJ += mc.energyJ;
    out.migrationBytes += mc.dramBytes;
    bumpCluster(wMigrations, nowSec);
    // An instant, not a span: the transfer window [nowSec, +seconds)
    // may straddle the next epoch boundary, and overlapping spans on
    // one track would break the control track's clean nesting.
    if (control)
        control->instant(nowSec,
                         "migrate " + trace.jobs[idx].name + ": " +
                             spec.pods[srcP].name + " -> " +
                             spec.pods[dstP].name,
                         "migration");

    // Off the air until the state transfer lands (and, open loop,
    // until its next step is due anyway).
    rt.gateUntil = nowSec + mc.seconds;
    const double due =
        rt.rate > 0.0 ? rt.arrival + double(rt.core.done) / rt.rate
                      : rt.arrival;
    serve_core::gate(*this, dst.core, idx,
                     std::max(due, rt.gateUntil));
}

std::size_t
FleetSim::rebalanceRound(double nowSec, double widthSec)
{
    if (!(widthSec > 0.0) || !std::isfinite(widthSec))
        return 0;
    std::vector<double> &util = utilScratch;
    util.resize(pods.size());
    for (std::size_t p = 0; p < pods.size(); ++p)
        util[p] = pods[p].epochBusySec / widthSec;

    std::size_t moved = 0;
    while (int(moved) < spec.rebalance.maxPerRound) {
        std::size_t hot = 0, cold = 0;
        for (std::size_t p = 1; p < pods.size(); ++p) {
            if (util[p] > util[hot])
                hot = p;
            if (util[p] < util[cold])
                cold = p;
        }
        const double gap = util[hot] - util[cold];
        if (gap <= spec.rebalance.skewThreshold + kEps)
            break;

        // Move the hot pod's busiest movable tenant whose measured
        // share fits in half the gap (a bigger move would overshoot
        // and oscillate). Ties break on the lowest index.
        PodRt &src = pods[hot];
        std::size_t keep = 0;
        std::uint32_t best = std::uint32_t(-1);
        double best_busy = 0.0;
        const double fit = gap * 0.5 * widthSec;
        for (std::size_t m = 0; m < src.members.size(); ++m) {
            const std::uint32_t idx = src.members[m];
            const TenantRt &rt = tenants[idx];
            if (rt.pod != hot || rt.core.state == TaskState::kDone)
                continue; // stale entry: compact it away
            src.members[keep++] = idx;
            if (rt.core.state != TaskState::kReady &&
                rt.core.state != TaskState::kGated)
                continue;
            const double busy =
                rt.busyStamp == epochId ? rt.epochBusySec : 0.0;
            if (busy <= 0.0 || busy > fit + kEps)
                continue;
            if (busy > best_busy + kEps) {
                best = idx;
                best_busy = busy;
            }
        }
        src.members.resize(keep);
        if (best == std::uint32_t(-1))
            break;

        migrate(best, hot, cold, nowSec);
        ++moved;
        const double share = best_busy / widthSec;
        util[hot] -= share;
        util[cold] += share;
    }
    return moved;
}

double
FleetSim::globalNextEventSec()
{
    double ev = kInf;
    if (placeCursor < n)
        ev = trace.jobs[placeCursor].arrivalSec;
    for (PodRt &pod : pods) {
        if (!pod.core.ready.empty())
            ev = std::min(ev, pod.core.nowSec);
        ev = std::min(
            ev, serve_core::peekNextEvent(*this, pod.core, coreCfg)
                    .atSec);
    }
    return ev;
}

double
FleetSim::totalEnergySoFar() const
{
    double total = 0.0;
    for (const PodRt &pod : pods)
        total += pod.energyJ;
    return total;
}

void
FleetSim::setup()
{
    n = trace.jobs.size();
    wall = spec.wallLimitSec;
    unfinished = n;

    tenants.resize(n);
    std::size_t lat_slots = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantJob &job = trace.jobs[i];
        TenantRt &rt = tenants[i];
        rt.arrival = job.arrivalSec;
        rt.depart = job.departSec;
        rt.rate = job.qosStepsPerSec;
        rt.qosDeadline = job.qosDeadlineSec;
        rt.steps = job.steps;
        rt.priority = job.priority;
        rt.cls = jobCls[i];
        rt.core.lastCompletionSec = job.arrivalSec;
        rt.latOff = lat_slots;
        lat_slots += job.steps; // bounded sessions: one slot per step
    }
    latArena = std::make_unique_for_overwrite<double[]>(lat_slots);
    pods.resize(spec.pods.size());
    for (std::size_t p = 0; p < pods.size(); ++p) {
        pods[p].type = podType[p];
        pods[p].core.id = p;
    }
    loadViews.assign(pods.size(), PodLoadView{});
    decided.resize(n);

    if (telemetry) {
        // Window width from the input trace alone (last arrival), so
        // the same trace always yields the same windows.
        if (!(telemetry->invWindowSec > 0.0))
            telemetry->resolveWindow(
                n > 0 ? trace.jobs.back().arrivalSec : 0.0);
        prioValues.clear();
        for (const TenantRt &rt : tenants)
            prioValues.push_back(rt.priority);
        std::sort(prioValues.begin(), prioValues.end());
        prioValues.erase(
            std::unique(prioValues.begin(), prioValues.end()),
            prioValues.end());
        for (TenantRt &rt : tenants)
            rt.prioSlot = std::uint32_t(
                std::lower_bound(prioValues.begin(), prioValues.end(),
                                 rt.priority) -
                prioValues.begin());
        for (PodRt &pod : pods) {
            pod.obsEdgeSec = -kInf; // arm the hot-path edge compare
            pod.latWindows.resize(prioValues.size());
            for (std::size_t s = 0; s < prioValues.size(); ++s)
                pod.latWindows[s].configure(
                    telemetry->invWindowSec,
                    telemetry->slo.targetFor(prioValues[s]),
                    telemetry->slo.globalTargetSec);
        }
    }

    if (sink) {
        // Tracks are created here, sequentially, before any parallel
        // epoch touches them; each pod's worker then appends to its
        // own track only.
        control = sink->track(0, "cluster");
        podTracks.resize(pods.size());
        for (std::size_t p = 0; p < pods.size(); ++p)
            podTracks[p] =
                sink->track(int(p) + 1, "pod " + spec.pods[p].name);
    }

    // Fleet semantics on the shared core: enqueue-order round robin,
    // rate gating always on, raw arrival preemption, epoch-form
    // boundary comparisons (every tenant-mode flag stays off).
    coreCfg.policy = spec.policy;
    coreCfg.quantumIters = spec.quantumIters;
    coreCfg.wallLimitSec = wall;

    const bool controls =
        spec.rebalance.enabled || spec.budget.enabled();
    interval = kInf;
    if (spec.controlIntervalSec > 0.0) {
        interval = spec.controlIntervalSec;
    } else if (controls) {
        const double span = trace.jobs.back().arrivalSec;
        interval = span > 0.0 ? span / 8.0 : 1.0;
    }
}

void
FleetSim::run(int threads)
{
    {
        obs::ScopedPhase phase("fleet_setup");
        setup();
    }

    double T = 0.0;
    for (;;) {
        if (unfinished == 0 && placeCursor >= n)
            break;

        double t1 = T + interval;
        if (std::isfinite(t1) && placeCursor >= n) {
            // Fast-forward empty epochs: when every next event is past
            // the boundary, push the boundary to just beyond it so a
            // sparse tail doesn't grind through thousands of idle
            // control rounds.
            const double ev = globalNextEventSec();
            if (std::isfinite(ev) && ev > t1)
                t1 = ev + interval;
        }
        if (wall > 0.0)
            t1 = std::min(t1, wall);

        // Apply this epoch's placements, first deciding any arrival
        // the previous epoch's lookahead did not reach.
        const std::size_t placedBefore = placeCursor;
        {
            obs::ScopedPhase phase("placement");
            decideUntil(t1);
            while (placeCursor < n &&
                   trace.jobs[placeCursor].arrivalSec < t1)
                apply(placeCursor++);
        }

        // Serve the epoch; meanwhile index 0 -- the calling lane's
        // first pick -- decides the next epoch's arrivals.  That epoch
        // ends at t1 + interval, capped at the wall budget: the
        // fast-forward above only moves a boundary once every arrival
        // is applied, and then nothing is left to decide.
        const double ahead =
            wall > 0.0 ? std::min(t1 + interval, wall) : t1 + interval;
        {
            obs::ScopedPhase phase("epoch_serve");
            forEachPod(pods.size() + 1, threads, [&](std::size_t k) {
                if (k == 0) {
                    obs::ScopedPhase aheadPhase("placement_ahead");
                    decideUntil(ahead);
                } else {
                    runPodEpoch(k - 1, t1);
                }
            });
        }

        std::uint64_t epochSteps = 0;
        for (PodRt &pod : pods) {
            unfinished -= pod.finishedThisEpoch;
            epochSteps += pod.epochSteps;
        }

        if (!std::isfinite(t1))
            break; // one uninterrupted epoch ran everything
        const double width = t1 - T;
        T = t1;
        if (wall > 0.0 && T >= wall - kEps)
            break;
        if (unfinished == 0 && placeCursor >= n)
            break;

        obs::ScopedPhase controlsPhase("fleet_controls");
        if (spec.budget.enabled()) {
            // The epoch the budget just audited, as a control span:
            // consecutive epochs tile the timeline without overlap.
            if (control)
                control->span(T - width, T,
                              "budget epoch " +
                                  std::to_string(epochId),
                              "budget");
            enforceBudget(T, std::isfinite(interval) ? interval
                                                     : width);
        }
        std::size_t migrated = 0;
        if (spec.rebalance.enabled)
            migrated = rebalanceRound(T, width);

        // Deadlock guard: nothing ran, nothing will arrive, and every
        // survivor is budget-suspended with no resume in sight -- the
        // budget has permanently preempted them; end the run.
        if (epochSteps == 0 && migrated == 0 &&
            placeCursor == placedBefore && placeCursor >= n &&
            unfinished > 0) {
            bool all_suspended = true;
            for (const TenantRt &rt : tenants)
                if (rt.admitted && rt.core.state != TaskState::kDone &&
                    rt.core.state != TaskState::kSuspended) {
                    all_suspended = false;
                    break;
                }
            if (all_suspended) {
                for (TenantRt &rt : tenants)
                    if (rt.admitted &&
                        rt.core.state != TaskState::kDone)
                        rt.core.state = TaskState::kDone;
                unfinished = 0;
                break;
            }
        }
        ++epochId;
    }
}

void
FleetSim::assemble(int threads)
{
    for (const PodRt &pod : pods)
        out.makespanSec = std::max(out.makespanSec, pod.lastActiveSec);

    double qos_sum = 0.0;
    std::size_t qos_count = 0;
    std::vector<double> pod_qos_sum(pods.size(), 0.0);
    std::vector<std::size_t> pod_qos_count(pods.size(), 0);
    std::vector<std::size_t> pod_ended(pods.size(), 0);

    {
    obs::ScopedPhase tenants_phase("assemble_tenants");
    // Each row is a pure function of its own tenant's runtime state
    // (the latency stats may sort disjoint arena ranges in place),
    // so rows build in parallel; the floating-point QoS accumulators
    // run in a sequential index-order pass below so their addition
    // order -- and therefore every mean byte -- is independent of the
    // worker count.
    out.tenants.resize(n);
    forEachPod(n, threads, [&](std::size_t i) {
        const TenantJob &job = trace.jobs[i];
        TenantRt &rt = tenants[i];
        FleetTenantMetrics &m = out.tenants[i];
        m.job = job;
        m.finalPod = rt.pod;
        m.admitted = rt.admitted;
        m.stepsDone = rt.core.done;
        m.completed = rt.core.completed;
        m.switchesIn = rt.switchesIn;
        m.migrations = rt.migrations;
        m.migrationSec = rt.migSec;
        m.migrationEnergyJ = rt.migEnergyJ;
        m.suspensions = rt.suspensions;
        m.energyJ = rt.energyJ;

        // Rejected, or never placed: it arrived at or after the wall
        // budget, so no pod ever saw it.
        if (!rt.admitted || rt.pod == kNoPod) {
            m.resolvedBatch = job.batch;
            m.endSec = job.arrivalSec;
            m.achievedStepsPerSec = kNaN;
            m.isolatedStepsPerSec = kNaN;
            m.qosAttainmentPct = kNaN;
            m.stepLatency = computeLatencyStats({});
            return;
        }

        const std::uint32_t type = pods[rt.pod].type;
        const IterationCost &cost = costOf(type, rt.cls);
        m.resolvedBatch = reportedBatch(cost, job);

        scoreSession(m, job, rt.core, cost.seconds, wall,
                     out.makespanSec);
        m.stepLatency =
            rt.steps > 0
                ? computeLatencyStatsScratch(
                      latArena.get() + rt.latOff, rt.core.done)
                : computeLatencyStats(std::move(rt.latencySec));
    });
    for (std::size_t i = 0; i < n; ++i) {
        const FleetTenantMetrics &m = out.tenants[i];
        out.totalSteps += m.stepsDone;
        if (m.finalPod == kNoPod)
            continue;
        ++out.placedCount;
        ++pod_ended[m.finalPod];
        if (std::isfinite(m.qosAttainmentPct)) {
            qos_sum += m.qosAttainmentPct;
            ++qos_count;
            pod_qos_sum[m.finalPod] += m.qosAttainmentPct;
            ++pod_qos_count[m.finalPod];
        }
    }
    }
    out.meanQosAttainmentPct =
        qos_count > 0 ? qos_sum / double(qos_count) : kNaN;

    // Each pod's ascending latency run, kept for the fleet-wide row.
    std::vector<LatencyRun> pod_runs(pods.size());
    {
    obs::ScopedPhase pods_phase("assemble_pods");
    // Same split as the tenant rows: per-pod latency stats run
    // in parallel, totals accumulate sequentially afterwards.
    out.pods.resize(pods.size());
    forEachPod(pods.size(), threads, [&](std::size_t p) {
        PodRt &pod = pods[p];
        const PodSpec &ps = spec.pods[p];
        FleetPodReport &r = out.pods[p];
        r.name = ps.name;
        r.configName = ps.config.name;
        r.chips = ps.chips;
        r.backend = backendName(ps.backend());
        r.placed = pod.placed;
        r.migratedIn = pod.migIn;
        r.migratedOut = pod.migOut;
        r.ended = pod_ended[p];
        r.stepsDone = pod.steps;
        r.busySec = pod.busySec;
        r.utilization = safeRatio(pod.busySec, out.makespanSec);
        r.energyJ = pod.energyJ;
        r.contextSwitches = pod.switches;
        r.switchSec = pod.switchSec;
        r.switchEnergyJ = pod.switchEnergyJ;
        r.migrationSec = pod.migSec;
        r.migrationEnergyJ = pod.migEnergyJ;
        r.migrationBytes = pod.migBytes;
        r.meanQosAttainmentPct =
            pod_qos_count[p] > 0
                ? pod_qos_sum[p] / double(pod_qos_count[p])
                : kNaN;
        pod_runs[p] = pod.latency.ascending();
        r.stepLatency = rankStats(pod_runs[p]);
    });
    for (const PodRt &pod : pods) {
        out.totalEnergyJ += pod.energyJ;
        out.contextSwitches += pod.switches;
        out.coreCounters += pod.core.counters;
    }
    }
    for (FleetPodReport &r : out.pods)
        r.energyShare = safeRatio(r.energyJ, out.totalEnergyJ);

    // The fleet-wide latency run: the pods' runs merged (any order
    // gives the same run), read by the aggregate row and the metrics
    // histogram.
    LatencyRun all_lat;
    {
        obs::ScopedPhase agg_phase("assemble_agg");
        all_lat = mergeAscendingRuns(std::move(pod_runs));
        out.aggStepLatency = rankStats(all_lat);
    }
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled())
        for (const auto &[latency, count] : all_lat)
            metrics.recordValue("fleet.step_latency_sec", latency, count);

    if (telemetry) {
        obs::ScopedPhase obs_phase("assemble_telemetry");
        publishTelemetry();
    }

    // Sequential publish point (after the parallel epochs are done):
    // everything below is a pure function of the simulated outcome,
    // so the snapshot is byte-identical across thread counts.
    if (auto &metrics = obs::MetricsRegistry::instance();
        metrics.enabled()) {
        metrics.setGauge("fleet.pods", double(pods.size()));
        metrics.setGauge("fleet.sessions", double(n));
        metrics.addCounter("fleet.placed", out.placedCount);
        metrics.addCounter("fleet.rejected", out.rejectedCount);
        metrics.addCounter(std::string("fleet.placement_picks.") +
                               placementName(spec.placement),
                           out.placedCount);
        metrics.addCounter("fleet.migrations", out.migrations);
        metrics.addCounter("fleet.suspensions", out.suspensions);
        metrics.addCounter("fleet.steps", out.totalSteps);
        // Cache-state-dependent, so it lives here (diva-metrics-v1)
        // rather than in the byte-deterministic timeseries document.
        metrics.addCounter("fleet.plan_cache.hits", out.planHits);
        metrics.addCounter("fleet.plan_cache.misses", out.planMisses);
        metrics.setGauge(
            "fleet.plan_cache.hit_rate",
            safeRatio(double(out.planHits),
                      double(out.planHits + out.planMisses)));
        publishCoreCounters(out.coreCounters);
    }
}

void
FleetSim::publishTelemetry()
{
    obs::TimeSeriesSnapshot &snap = telemetry->snapshot;
    using Kind = obs::TimeSeries::Kind;
    const double W = telemetry->windowSec;

    // Per-pod window series, in pod-index order. The pod clock is
    // monotone, so obsRows is already window-sorted per pod.
    for (std::size_t p = 0; p < pods.size(); ++p) {
        PodRt &pod = pods[p];
        flushObsRow(pod);
        const std::string base = "pod." + spec.pods[p].name + ".";
        obs::TimeSeries &steps =
            snap.seriesRef(base + "steps", Kind::kCounter);
        obs::TimeSeries &switches =
            snap.seriesRef(base + "switches", Kind::kCounter);
        obs::TimeSeries &busy =
            snap.seriesRef(base + "busy_s", Kind::kSum);
        obs::TimeSeries &energy =
            snap.seriesRef(base + "energy_j", Kind::kSum);
        obs::TimeSeries &util =
            snap.seriesRef(base + "util", Kind::kGauge);
        obs::TimeSeries &power =
            snap.seriesRef(base + "power_w", Kind::kGauge);
        obs::TimeSeries &queue =
            snap.seriesRef(base + "queue_depth", Kind::kGauge);
        obs::TimeSeries &gated =
            snap.seriesRef(base + "gated", Kind::kGauge);
        for (const PodObsRow &r : pod.obsRows) {
            steps.points[r.w] += double(r.steps);
            switches.points[r.w] += double(r.switches);
            busy.points[r.w] += r.busySec;
            energy.points[r.w] += r.energyJ;
            util.points[r.w] = r.busySec / W;
            power.points[r.w] = r.energyJ / W;
            queue.points[r.w] = r.queueDepth;
            gated.points[r.w] = r.gated;
        }
        telemetry->decompExactFailures += pod.decompFailures;
    }

    // Per-priority latency decomposition: merge each pod's
    // single-writer windows in pod-index order, then publish the
    // series/sketches and the SLO report over the merged rows.
    std::map<int, std::map<std::int64_t, obs::ComponentWindows::Row>>
        by_prio;
    for (PodRt &pod : pods)
        for (std::size_t s = 0; s < pod.latWindows.size(); ++s) {
            pod.latWindows[s].finish();
            // Every decomposed step went through recordAt, so the
            // audit denominator is the sum of recorded steps.
            for (const obs::ComponentWindows::Row &r :
                 pod.latWindows[s].rows())
                telemetry->decompSteps += r.steps;
            obs::mergeComponentRows(pod.latWindows[s].rows(),
                                    &by_prio[prioValues[s]]);
        }
    obs::publishLatencyWindows(by_prio, "", telemetry);

    auto emitCluster = [&](const char *name,
                           const std::map<std::int64_t, double> &m) {
        for (const auto &[w, v] : m)
            snap.add(name, Kind::kCounter, w, v);
    };
    emitCluster("cluster.placed", wPlaced);
    emitCluster("cluster.rejected", wRejected);
    emitCluster("cluster.migrations", wMigrations);
    emitCluster("cluster.suspensions", wSuspensions);
    emitCluster("cluster.resumes", wResumes);

    // Breach instants land on the cluster control track; the sink
    // stable-sorts by timestamp at write time, so appending after the
    // run keeps the emitted trace ordered.
    if (control)
        for (const obs::SloScope &sc : telemetry->report.scopes)
            for (const obs::SloWindow &sw : sc.windows)
                if (sw.breach)
                    control->instant(double(sw.w) * W,
                                     "slo breach " + sc.name, "slo");
}

} // namespace

FleetResult
simulateFleet(const FleetSpec &spec, const ArrivalTrace &trace,
              SweepRunner &runner, int threads,
              obs::TraceSink *traceSink, obs::RunTelemetry *telemetry)
{
    FleetResult out;
    out.fleetName = spec.name;
    out.traceName = trace.name;
    out.policy = spec.policy;
    out.placement = spec.placement;
    out.quantumIters = spec.quantumIters;
    out.wallLimitSec = spec.wallLimitSec;

    {
        obs::ScopedPhase phase("fleet_validate");
        out.error = spec.validationError();
        if (out.ok())
            out.error = trace.validationError(spec.wallLimitSec > 0.0);
    }
    if (!out.ok())
        return out;
    if (trace.jobs.size() >= std::size_t(std::uint32_t(-1))) {
        out.error = "trace exceeds the fleet engine's session limit";
        return out;
    }

    FleetSim sim(spec, trace, out);
    sim.n = trace.jobs.size();
    sim.sink = traceSink;
    sim.telemetry = telemetry;
    {
        obs::ScopedPhase phase("fleet_pricing");
        out.error = sim.price(runner);
    }
    if (!out.ok())
        return out;

    {
        obs::ScopedPhase phase("fleet_run");
        sim.run(threads);
    }
    {
        obs::ScopedPhase phase("fleet_assemble");
        sim.assemble(threads);
    }
    return out;
}

FleetResult
simulateFleet(const FleetSpec &spec, const ArrivalTrace &trace)
{
    SweepRunner runner;
    return simulateFleet(spec, trace, runner);
}

} // namespace diva
