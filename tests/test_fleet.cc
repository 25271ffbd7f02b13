/**
 * @file
 * Tests of the datacenter-scale fleet layer: the typed placement scan
 * against its per-pod reference, placement-policy choices on skewed
 * loads (energy-aware beats first-fit on joules across a
 * heterogeneous fleet, load-aware beats first-fit on tail latency),
 * migration-cost reconciliation between fleet totals and per-pod /
 * per-tenant sums, energy-budget preemption ordering, partial-SRAM
 * working-set switch costs, spec/trace validation, exact pod-type
 * dedup, and byte-determinism of the fleet emitters across engine thread counts
 * and warm plan caches.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "fleet/migration.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "tenant/context_switch.h"

namespace diva
{
namespace
{

/** A session: closed loop when rate is 0, open loop otherwise. */
TenantJob
job(const std::string &name, double arrival, std::uint64_t steps,
    double rate, int priority = 0)
{
    TenantJob j;
    j.name = name;
    j.model = "SqueezeNet";
    j.batch = 8;
    j.arrivalSec = arrival;
    j.steps = steps;
    j.qosStepsPerSec = rate;
    j.priority = priority;
    return j;
}

ArrivalTrace
trace(std::vector<TenantJob> jobs)
{
    ArrivalTrace t;
    t.name = "test";
    t.jobs = std::move(jobs);
    return t;
}

/** Expand one CLI pod template, asserting it parses. */
std::vector<PodSpec>
podsOf(const std::string &text)
{
    std::string err;
    const auto group = parsePodTemplate(text, &err);
    EXPECT_TRUE(group.has_value()) << err;
    return group.value_or(std::vector<PodSpec>{});
}

FleetSpec
fleetOf(const std::vector<std::vector<PodSpec>> &groups,
        PlacementKind placement)
{
    FleetSpec spec = buildFleet(groups);
    spec.placement = placement;
    return spec;
}

/** Total energy of `jobs` served by the given single-pod fleet. */
double
energyOn(const std::vector<PodSpec> &pod,
         const std::vector<TenantJob> &jobs)
{
    const FleetResult r = simulateFleet(
        fleetOf({pod}, PlacementKind::kFirstFit), trace(jobs));
    EXPECT_TRUE(r.ok()) << r.error;
    return r.totalEnergyJ;
}

TEST(FleetSpecParse, TemplatesExpandAndValidate)
{
    const std::vector<PodSpec> group = podsOf("df=OS,chips=2,count=3");
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group[0].chips, 2);
    EXPECT_EQ(group[0].backend(), SweepBackend::kMultiChip);

    std::string err;
    EXPECT_FALSE(parsePodTemplate("df=WS,ppu=on", &err).has_value());
    EXPECT_NE(err.find("PPU"), std::string::npos) << err;
    EXPECT_FALSE(parsePodTemplate("bogus=1", &err).has_value());
    EXPECT_FALSE(parsePodTemplate("chips=0", &err).has_value());

    const FleetSpec spec =
        buildFleet({podsOf("df=DiVa,count=2"), podsOf("df=OS,ppu=off")});
    EXPECT_EQ(spec.name, "fleet-3");
    ASSERT_EQ(spec.pods.size(), 3u);
    EXPECT_EQ(spec.pods[0].name, "p0");
    EXPECT_EQ(spec.pods[2].name, "p2");
    EXPECT_TRUE(spec.validationError().empty())
        << spec.validationError();

    EXPECT_NE(FleetSpec{}.validationError().find("no pods"),
              std::string::npos);
}

TEST(FleetPlacementUnit, PoliciesAndFeasibility)
{
    // Three pods, each its own type.
    const std::vector<PodLoadView> pods = {{0.6, 3}, {0.2, 1}, {0.4, 2}};
    const std::vector<std::uint32_t> type = {0, 1, 2};
    const std::vector<double> demand = {0.3, 0.3, 0.3};
    const std::vector<double> joules = {5.0, 4.0, 1.0};

    // First-fit skips the full pod 0, load-aware takes the emptiest,
    // energy-aware the cheapest feasible.
    EXPECT_EQ(choosePod(PlacementKind::kFirstFit, pods, type, demand,
                        joules, 0.8),
              1u);
    EXPECT_EQ(choosePod(PlacementKind::kLoadAware, pods, type, demand,
                        joules, 1.0),
              1u);
    EXPECT_EQ(choosePod(PlacementKind::kEnergyAware, pods, type,
                        demand, joules, 1.0),
              2u);

    // No pod can absorb the demand: rejected everywhere.
    for (PlacementKind k : allPlacements())
        EXPECT_EQ(choosePod(k, pods, type, {0.5, 0.9, 0.7}, joules, 1.0),
                  kNoPod);

    // Pods sharing a type share its price: pod 2 (type 0) is now as
    // expensive as pod 0, so energy-aware takes pod 1.
    EXPECT_EQ(choosePod(PlacementKind::kEnergyAware, pods, {0, 1, 0},
                        demand, joules, 1.0),
              1u);

    EXPECT_EQ(placementFromName("energy"),
              std::optional(PlacementKind::kEnergyAware));
    EXPECT_EQ(placementFromName("bogus"), std::nullopt);
    EXPECT_STREQ(placementName(PlacementKind::kLoadAware), "load");
}

/**
 * The per-pod scan choosePod ran before prices were given per pod
 * type, kept verbatim as the reference the typed scan must match.
 */
std::size_t
choosePodPerPodReference(PlacementKind kind,
                         const std::vector<PodLoadView> &pods,
                         const std::vector<double> &demandOnPod,
                         const std::vector<double> &energyPerStepOnPod,
                         double cap)
{
    constexpr double kEps = 1e-9;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    auto finiteOr = [](double v, double fallback) {
        return std::isfinite(v) ? v : fallback;
    };
    std::size_t best = kNoPod;
    double best_primary = kInf;
    double best_secondary = kInf;
    for (std::size_t p = 0; p < pods.size(); ++p) {
        const double demand = finiteOr(demandOnPod[p], kInf);
        if (pods[p].demand + demand > cap + kEps)
            continue;
        if (kind == PlacementKind::kFirstFit)
            return p;
        double primary = 0.0;
        double secondary = 0.0;
        if (kind == PlacementKind::kLoadAware) {
            primary = pods[p].demand;
            secondary = double(pods[p].sessions);
        } else {
            primary = finiteOr(energyPerStepOnPod[p], kInf);
            secondary = pods[p].demand;
        }
        if (best == kNoPod || primary < best_primary - kEps ||
            (primary <= best_primary + kEps &&
             secondary < best_secondary - kEps)) {
            best = p;
            best_primary = std::min(best_primary, primary);
            best_secondary = secondary;
        }
    }
    return best;
}

TEST(FleetPlacementUnit, TypedScanMatchesPerPodReference)
{
    // Seeded random corpus aimed at the tie-break: values drawn from a
    // tiny grid (exact ties) plus jitter in 0.6 kEps steps, so near-ties
    // chain past kEps and a tie-break winner that raised the bar would
    // change later picks; pods over the cap, and NaN/inf prices, for
    // every policy.
    std::mt19937_64 rng(20221001);
    auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % n);
    };
    const double kNaNv = std::numeric_limits<double>::quiet_NaN();
    const double kInfv = std::numeric_limits<double>::infinity();
    auto price = [&](double scale) {
        switch (pick(10)) {
          case 0: return kNaNv;
          case 1: return kInfv;
          case 2: return 0.0;
          default:
            return scale * double(pick(4)) + double(pick(3)) * 6e-10;
        }
    };
    for (int round = 0; round < 4000; ++round) {
        const std::size_t npods = 1 + pick(24);
        const std::size_t ntypes = 1 + pick(4);
        std::vector<PodLoadView> pods(npods);
        std::vector<std::uint32_t> type(npods);
        for (std::size_t p = 0; p < npods; ++p) {
            pods[p].demand =
                0.25 * double(pick(5)) + double(pick(3)) * 6e-10;
            pods[p].sessions = pick(4);
            type[p] = std::uint32_t(pick(ntypes));
        }
        std::vector<double> typeDemand(ntypes), typeEnergy(ntypes);
        for (std::size_t t = 0; t < ntypes; ++t) {
            typeDemand[t] = price(0.2);
            typeEnergy[t] = price(1.0);
        }
        std::vector<double> demandOnPod(npods), energyOnPod(npods);
        for (std::size_t p = 0; p < npods; ++p) {
            demandOnPod[p] = typeDemand[type[p]];
            energyOnPod[p] = typeEnergy[type[p]];
        }
        const double cap = pick(2) ? 1.0 : 0.5;
        for (PlacementKind k : allPlacements())
            ASSERT_EQ(choosePod(k, pods, type, typeDemand, typeEnergy,
                                cap),
                      choosePodPerPodReference(k, pods, demandOnPod,
                                               energyOnPod, cap))
                << "round " << round << " policy " << placementName(k);
    }
}

TEST(FleetPlacement, EnergyAwareBeatsFirstFitOnJoules)
{
    // Heterogeneous fleet with the pricier design point first, so
    // first-fit (which stacks best-effort tenants on pod 0) pays more
    // joules than energy-aware (which routes to the cheaper pod).
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 8, 0.0));

    std::vector<PodSpec> a = podsOf("df=DiVa");
    std::vector<PodSpec> b = podsOf("df=OS");
    const double ea = energyOn(a, jobs);
    const double eb = energyOn(b, jobs);
    ASSERT_NE(ea, eb) << "design points price identically; the "
                         "energy-aware comparison would be vacuous";
    if (ea < eb)
        std::swap(a, b); // expensive pod first

    const FleetResult ff = simulateFleet(
        fleetOf({a, b}, PlacementKind::kFirstFit), trace(jobs));
    const FleetResult en = simulateFleet(
        fleetOf({a, b}, PlacementKind::kEnergyAware), trace(jobs));
    ASSERT_TRUE(ff.ok()) << ff.error;
    ASSERT_TRUE(en.ok()) << en.error;

    EXPECT_EQ(ff.pods[0].placed, jobs.size());
    EXPECT_EQ(en.pods[1].placed, jobs.size());
    EXPECT_LT(en.totalEnergyJ, ff.totalEnergyJ);
}

TEST(FleetPlacement, LoadAwareBeatsFirstFitOnTailLatency)
{
    // Eight modest open-loop sessions all fit on one pod's demand cap,
    // so first-fit stacks every one on p0 and their steps queue behind
    // each other; load-aware spreads them 4/4 and the p99 step latency
    // drops.
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 12, 20.0));

    const std::vector<std::vector<PodSpec>> pods = {
        podsOf("df=DiVa,count=2")};
    const FleetResult ff = simulateFleet(
        fleetOf(pods, PlacementKind::kFirstFit), trace(jobs));
    const FleetResult ld = simulateFleet(
        fleetOf(pods, PlacementKind::kLoadAware), trace(jobs));
    ASSERT_TRUE(ff.ok()) << ff.error;
    ASSERT_TRUE(ld.ok()) << ld.error;

    ASSERT_EQ(ff.rejectedCount, 0u);
    EXPECT_EQ(ff.pods[0].placed, jobs.size());
    EXPECT_EQ(ld.pods[0].placed, jobs.size() / 2);
    EXPECT_EQ(ld.pods[1].placed, jobs.size() / 2);
    EXPECT_LT(ld.aggStepLatency.p99Sec, ff.aggStepLatency.p99Sec);
}

TEST(FleetMigration, RebalanceMovesLoadAndCostsReconcile)
{
    // Best-effort sessions stack on p0 under first-fit; with the
    // rebalance loop on, the idle p1 pulls work over. Every migration
    // is billed to the moved tenant and to the destination pod, so the
    // fleet totals must equal both per-pod and per-tenant sums.
    std::vector<TenantJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(job("t" + std::to_string(i), 0.0, 60, 0.0));

    FleetSpec spec = fleetOf({podsOf("df=DiVa,count=2")},
                             PlacementKind::kFirstFit);
    spec.rebalance.enabled = true;
    spec.rebalance.skewThreshold = 0.2;
    spec.controlIntervalSec = 0.02;
    const FleetResult r = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_GT(r.migrations, 0u);

    std::uint64_t pod_in = 0, pod_out = 0, ten_mig = 0;
    std::uint64_t pod_steps = 0, ten_steps = 0;
    double pod_sec = 0.0, pod_j = 0.0, pod_energy = 0.0;
    double ten_sec = 0.0, ten_j = 0.0, ten_energy = 0.0;
    Bytes pod_bytes = 0;
    for (const FleetPodReport &p : r.pods) {
        pod_in += p.migratedIn;
        pod_out += p.migratedOut;
        pod_sec += p.migrationSec;
        pod_j += p.migrationEnergyJ;
        pod_bytes += p.migrationBytes;
        pod_energy += p.energyJ;
        pod_steps += p.stepsDone;
    }
    for (const FleetTenantMetrics &t : r.tenants) {
        ten_mig += t.migrations;
        ten_sec += t.migrationSec;
        ten_j += t.migrationEnergyJ;
        ten_energy += t.energyJ;
        ten_steps += t.stepsDone;
    }
    EXPECT_EQ(r.migrations, pod_in);
    EXPECT_EQ(r.migrations, pod_out);
    EXPECT_EQ(r.migrations, ten_mig);
    EXPECT_DOUBLE_EQ(r.migrationSec, pod_sec);
    EXPECT_NEAR(r.migrationSec, ten_sec, 1e-12 + 1e-12 * pod_sec);
    EXPECT_DOUBLE_EQ(r.migrationEnergyJ, pod_j);
    EXPECT_NEAR(r.migrationEnergyJ, ten_j, 1e-12 + 1e-12 * pod_j);
    EXPECT_EQ(r.migrationBytes, pod_bytes);
    EXPECT_EQ(r.totalSteps, pod_steps);
    EXPECT_EQ(r.totalSteps, ten_steps);
    EXPECT_NEAR(r.totalEnergyJ, pod_energy,
                1e-9 * std::max(1.0, pod_energy));
    EXPECT_NEAR(r.totalEnergyJ, ten_energy,
                1e-9 * std::max(1.0, ten_energy));
    for (const FleetTenantMetrics &t : r.tenants)
        EXPECT_TRUE(t.completed) << t.job.name;
    // Migration seconds are billed as destination busy time, so they
    // must also extend the pod's active span: utilization stays <= 1
    // even when a transfer lands after the pod's last step.
    for (const FleetPodReport &p : r.pods)
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
}

TEST(FleetBudget, PowerCapPreemptsLowPriorityFirst)
{
    // Derive a cap that sustains one tenant but not two from an
    // unbudgeted run, then check the budget keeps the high-priority
    // tenant running and only stalls (not starves) the low one.
    const std::vector<TenantJob> jobs = {job("hi", 0.0, 40, 0.0, 5),
                                         job("lo", 0.0, 40, 0.0, 0)};
    FleetSpec spec = fleetOf({podsOf("df=DiVa")},
                             PlacementKind::kFirstFit);
    const FleetResult free_run = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(free_run.ok()) << free_run.error;
    ASSERT_TRUE(std::isfinite(free_run.makespanSec));

    // The two tenants serialize on the one pod, so the free-run
    // average draw is one tenant's sustained watts; each tenant's
    // *projected* draw is that full figure, so a 1.5x cap admits one
    // tenant but not both.
    const double watts =
        free_run.totalEnergyJ / free_run.makespanSec;
    spec.budget.powerCapW = 1.5 * watts;
    spec.controlIntervalSec = free_run.makespanSec / 16.0;
    const FleetResult capped = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(capped.ok()) << capped.error;

    EXPECT_GT(capped.suspensions, 0u);
    EXPECT_EQ(capped.tenants[0].suspensions, 0u);
    EXPECT_GT(capped.tenants[1].suspensions, 0u);
    EXPECT_TRUE(capped.tenants[0].completed);
    EXPECT_TRUE(capped.tenants[1].completed);

    // With its rival preempted the high-priority tenant stops
    // time-slicing and finishes earlier than in the free run.
    EXPECT_LT(capped.tenants[0].endSec, free_run.tenants[0].endSec);
}

TEST(FleetBudget, JouleBudgetEndsTheRunEarly)
{
    const std::vector<TenantJob> jobs = {job("hi", 0.0, 60, 0.0, 5),
                                         job("lo", 0.0, 60, 0.0, 0)};
    FleetSpec spec = fleetOf({podsOf("df=DiVa")},
                             PlacementKind::kFirstFit);
    const FleetResult free_run = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(free_run.ok()) << free_run.error;

    spec.budget.totalJ = 0.4 * free_run.totalEnergyJ;
    spec.controlIntervalSec = free_run.makespanSec / 16.0;
    const FleetResult capped = simulateFleet(spec, trace(jobs));
    ASSERT_TRUE(capped.ok()) << capped.error;

    EXPECT_GT(capped.suspensions, 0u);
    EXPECT_LT(capped.totalEnergyJ, free_run.totalEnergyJ);
    EXPECT_FALSE(capped.tenants[0].completed &&
                 capped.tenants[1].completed);
}

TEST(FleetAdmission, InfeasibleDemandIsRejected)
{
    const FleetResult r = simulateFleet(
        fleetOf({podsOf("df=DiVa,count=2")}, PlacementKind::kLoadAware),
        trace({job("greedy", 0.0, 8, 1e9), job("ok", 0.0, 8, 0.0)}));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.rejectedCount, 1u);
    EXPECT_EQ(r.placedCount, 1u);
    EXPECT_FALSE(r.tenants[0].admitted);
    EXPECT_EQ(r.tenants[0].finalPod, kNoPod);
    EXPECT_EQ(r.tenants[0].stepsDone, 0u);
    EXPECT_TRUE(std::isnan(r.tenants[0].achievedStepsPerSec));
    EXPECT_TRUE(r.tenants[1].completed);
}

TEST(FleetValidation, BadSpecsAndTracesErrorOut)
{
    const ArrivalTrace one = trace({job("a", 0.0, 4, 0.0)});

    FleetResult r = simulateFleet(FleetSpec{}, one);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("no pods"), std::string::npos) << r.error;

    FleetSpec zero_chip = fleetOf({podsOf("df=DiVa")},
                                  PlacementKind::kFirstFit);
    zero_chip.pods[0].chips = 0;
    EXPECT_FALSE(simulateFleet(zero_chip, one).ok());

    FleetSpec bad_backend = fleetOf({podsOf("df=DiVa")},
                                    PlacementKind::kFirstFit);
    bad_backend.backends = {SweepBackend::kMultiChip}; // 1-chip pods
    r = simulateFleet(bad_backend, one);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("backend 'chip' is not in the allowed"),
              std::string::npos)
        << r.error;

    const FleetSpec good = fleetOf({podsOf("df=DiVa")},
                                   PlacementKind::kFirstFit);
    EXPECT_FALSE(simulateFleet(good, ArrivalTrace{}).ok());
    r = simulateFleet(
        good, trace({job("late", 5.0, 4, 0.0), job("early", 0.0, 4, 0.0)}));
    EXPECT_FALSE(r.ok());

    // Error runs still emit: one placeholder row with the error last.
    std::ostringstream csv;
    writeFleetTenantCsv(csv, r);
    EXPECT_NE(csv.str().find(r.error), std::string::npos);
    std::ostringstream json;
    writeFleetJson(json, r);
    EXPECT_NE(json.str().find("\"error\""), std::string::npos);
}

TEST(FleetWorkingSet, PartialSwitchIsStrictlyCheaper)
{
    const AcceleratorConfig cfg = divaDefault(true);
    const SwitchCost full = ContextSwitchModel(cfg, 1, 1.0).cost();
    const SwitchCost part = ContextSwitchModel(cfg, 1, 0.25).cost();
    EXPECT_LT(part.cycles, full.cycles);
    EXPECT_LT(part.seconds, full.seconds);
    EXPECT_LT(part.energyJ, full.energyJ);
    EXPECT_LT(part.dramBytes, full.dramBytes);

    // Out-of-range fractions clamp to the whole-SRAM switch.
    const SwitchCost clamped = ContextSwitchModel(cfg, 1, 7.0).cost();
    EXPECT_EQ(clamped.seconds, full.seconds);
    EXPECT_EQ(clamped.dramBytes, full.dramBytes);

    const std::vector<PodSpec> pods = podsOf("df=DiVa,count=2");
    const MigrationCost mfull = migrationCost(pods[0], pods[1], 1.0);
    const MigrationCost mpart = migrationCost(pods[0], pods[1], 0.5);
    EXPECT_LT(mpart.seconds, mfull.seconds);
    EXPECT_LT(mpart.energyJ, mfull.energyJ);
    EXPECT_LT(mpart.dramBytes, mfull.dramBytes);
}

TEST(FleetPricing, IciTwinPodsAreTwoPodTypes)
{
    // Two pods that differ only in the 7th significant digit of their
    // ICI bandwidth are two design points: each prices as its own pod
    // type, and the pod CSV differs from the fleet with both pods at
    // the lower bandwidth.
    std::string err;
    const auto gen =
        parseTraceGenSpec("poisson:rate=2,horizon=4,seed=3", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);
    ASSERT_FALSE(t.jobs.empty());
    auto run = [&](const char *second, std::size_t *priced) {
        SweepRunner runner;
        const FleetResult r = simulateFleet(
            fleetOf({podsOf("chips=8,count=1,ici-gbs=1.0000001"),
                     podsOf(second)},
                    PlacementKind::kLoadAware),
            t, runner);
        EXPECT_TRUE(r.ok()) << r.error;
        // One priced scenario per (pod type, tenant class).
        *priced = runner.cacheSize();
        std::ostringstream os;
        writeFleetPodCsv(os, r);
        return os.str();
    };
    std::size_t twins = 0;
    std::size_t same = 0;
    const std::string twin_csv =
        run("chips=8,count=1,ici-gbs=1.0000004", &twins);
    const std::string same_csv =
        run("chips=8,count=1,ici-gbs=1.0000001", &same);
    EXPECT_GT(same, 0u);
    EXPECT_EQ(twins, 2 * same);
    EXPECT_NE(twin_csv, same_csv);
}

TEST(FleetDeterminism, EmittersAreByteIdenticalAcrossThreads)
{
    // Placement is decided one epoch ahead on a pool lane while the
    // pods serve; every output -- tenant/pod CSV, JSON, telemetry CSV
    // and the sim-time trace -- must stay byte-identical for 1, 2 and
    // 4 workers. The variants cover both scoring policies, rejections
    // (a small per-pod demand cap), a wall budget shorter than the
    // trace, and rebalance plus an energy budget together. The
    // multi-worker runners persist across variants, so from the second
    // variant on a cold serial run is compared against warm plan
    // caches: cache accounting must never leak into the output.
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=40,horizon=8,seed=17,qos=6,hold=3,cap=300", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace t = generateTrace(*gen);
    ASSERT_FALSE(t.jobs.empty());

    struct Variant
    {
        const char *name;
        PlacementKind placement;
        double podDemandCap;
        double wallSec;
        bool rebalance;
        double powerCapW;
    };
    const Variant variants[] = {
        {"load", PlacementKind::kLoadAware, 1.0, 0.0, true, 0.0},
        {"energy", PlacementKind::kEnergyAware, 1.0, 0.0, true, 0.0},
        {"load-rejects", PlacementKind::kLoadAware, 0.02, 0.0, false,
         0.0},
        {"energy-wall", PlacementKind::kEnergyAware, 0.05, 2.0, true,
         0.0},
        {"load-rebalance-budget", PlacementKind::kLoadAware, 1.0, 0.0,
         true, 40.0},
    };
    SweepOptions two, four;
    two.threads = 2;
    four.threads = 4;
    SweepRunner warm[2] = {SweepRunner(two), SweepRunner(four)};
    for (const Variant &v : variants) {
        FleetSpec spec =
            fleetOf({podsOf("df=DiVa,count=5"), podsOf("df=OS,count=3")},
                    v.placement);
        spec.podDemandCap = v.podDemandCap;
        spec.wallLimitSec = v.wallSec;
        spec.rebalance.enabled = v.rebalance;
        spec.rebalance.skewThreshold = 0.05;
        spec.budget.powerCapW = v.powerCapW;
        spec.controlIntervalSec = 0.4;

        auto emit = [&](SweepRunner &runner, int threads) {
            obs::RunTelemetry tel;
            obs::TraceSink sink;
            const FleetResult r =
                simulateFleet(spec, t, runner, threads, &sink, &tel);
            EXPECT_TRUE(r.ok()) << r.error;
            std::ostringstream os;
            writeFleetTenantCsv(os, r);
            writeFleetPodCsv(os, r);
            writeFleetJson(os, r, true);
            tel.writeCsv(os);
            sink.write(os);
            return std::make_pair(r, os.str());
        };
        SweepRunner cold;
        const auto [r1, serial] = emit(cold, 1);
        if (v.podDemandCap < 1.0 && v.wallSec == 0.0)
            EXPECT_GT(r1.rejectedCount, 0u) << v.name;
        if (v.wallSec > 0.0)
            EXPECT_LT(r1.placedCount + r1.rejectedCount, t.jobs.size())
                << v.name << ": the wall budget must cut the trace";
        if (v.powerCapW > 0.0)
            EXPECT_GT(r1.suspensions, 0u) << v.name;
        for (int k = 0; k < 2; ++k)
            EXPECT_TRUE(emit(warm[k], warm[k].options().threads).second ==
                        serial)
                << v.name << " differs at "
                << warm[k].options().threads << " threads";
    }
}

} // namespace
} // namespace diva
