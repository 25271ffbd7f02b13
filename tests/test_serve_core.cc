/**
 * @file
 * Contract tests of the shared event-driven serve core
 * (src/serve_core/): (1) golden byte-identity -- the diva_serve and
 * diva_fleet CLIs must reproduce, bit for bit, CSV/JSON fixtures
 * captured from the pre-refactor per-quantum scan loops; (2)
 * coalescing equivalence -- one closed-form multi-quantum advance must
 * land on exactly the state k single-quantum advances produce; (3)
 * thread-count determinism -- the fleet emitters must produce the same
 * bytes with 1 and 4 engine threads (run in-process so the TSan job
 * also proves the epoch parallelism race-free); (4) tenant-mode
 * behaviours -- one crafted schedule per serve_core::Mode::kTenant
 * difference, each failing if that difference is dropped; (5) policy
 * picks -- one crafted schedule per SchedPolicy, each failing if a
 * component of that policy's ReadyKey is dropped.
 *
 * The golden tests run the tool binaries out of the build directory
 * (ctest's working directory) against fixtures under
 * tests/golden/serve_core/, and skip when the tools or the
 * DIVA_SOURCE_DIR compile definition are unavailable.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals/generate.h"
#include "fleet/emit.h"
#include "fleet/engine.h"
#include "fleet/fleet.h"
#include "serve_core/core.h"

namespace diva
{
namespace
{

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream whole;
    whole << in.rdbuf();
    return whole.str();
}

/** Run a command with stdout/stderr dropped; -1 if system() failed. */
int
runQuiet(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

std::string
fixtureDir()
{
#ifdef DIVA_SOURCE_DIR
    return std::string(DIVA_SOURCE_DIR) + "/tests/golden/serve_core/";
#else
    return "";
#endif
}

// ------------------------------------------------------- golden diffs

class ServeCoreGolden : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (fixtureDir().empty() || !exists(fixtureDir() + "serve_closed.csv"))
            GTEST_SKIP() << "golden fixtures not found";
        if (!exists("./diva_serve") || !exists("./diva_fleet"))
            GTEST_SKIP() << "tool binaries not built";
    }

    /** Byte-compare a fresh output against a checked-in fixture. */
    void expectFixture(const std::string &fresh,
                       const std::string &fixture)
    {
        const std::string got = slurp(fresh);
        const std::string want = slurp(fixtureDir() + fixture);
        ASSERT_FALSE(want.empty()) << fixture << " fixture unreadable";
        EXPECT_TRUE(got == want)
            << fixture << ": output diverged from the pre-refactor "
            << "golden (" << got.size() << " vs " << want.size()
            << " bytes)";
        std::remove(fresh.c_str());
    }
};

TEST_F(ServeCoreGolden, ClosedLoopServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --policies all --tenants 3 "
                       "--steps 16 --quiet --csv sc_closed.csv "
                       "--json sc_closed.json"),
              0);
    expectFixture("sc_closed.csv", "serve_closed.csv");
    expectFixture("sc_closed.json", "serve_closed.json");
}

TEST_F(ServeCoreGolden, QuantumWallPriorityServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_serve --policy prio "
                 "--tenant ResNet-50:32:2.5:0:2:64 "
                 "--tenant SqueezeNet:8:4:0.001:1:0:0.02 "
                 "--tenant MobileNet:8:0:0.002:3:40 "
                 "--quantum 3 --wall-s 0.05 --quiet "
                 "--csv sc_quantum.csv --json sc_quantum.json"),
        0);
    expectFixture("sc_quantum.csv", "serve_quantum.csv");
    expectFixture("sc_quantum.json", "serve_quantum.json");
}

TEST_F(ServeCoreGolden, PodTimeSharingServeMatchesPreRefactorBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --policy fifo --tenants 4 "
                       "--steps 12 --chips 4 --quantum 2 --quiet "
                       "--csv sc_pod.csv --json sc_pod.json"),
              0);
    expectFixture("sc_pod.csv", "serve_pod.csv");
    expectFixture("sc_pod.json", "serve_pod.json");
}

TEST_F(ServeCoreGolden, FleetReplayMatchesPreRefactorBytes)
{
    ASSERT_EQ(
        runQuiet("./diva_fleet --pod df=DiVa,count=3 --pod df=OS "
                 "--placement load "
                 "--arrivals diurnal:rate=24,horizon=6,seed=11,qos=4,"
                 "hold=4,cap=160 "
                 "--rebalance-every 0.5 --quiet --no-summary "
                 "--pod-csv sc_fleet_pod.csv --csv sc_fleet.csv "
                 "--json sc_fleet.json"),
        0);
    expectFixture("sc_fleet.csv", "fleet_smoke.csv");
    expectFixture("sc_fleet.json", "fleet_smoke.json");
    expectFixture("sc_fleet_pod.csv", "fleet_smoke_pod.csv");
}

/** A prioritized diurnal replay under quantum 4 (CSV only): pins the
 *  tenant mode's departure-blocked idle skips and round-robin index
 *  rotation, which the fixtures above never reach. */
TEST_F(ServeCoreGolden, DiurnalQuantumReplayMatchesGoldenBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --arrivals diurnal:rate=6,seed=3,"
                       "hold=1,qos=2,prios=3 --steps 0 --policies all "
                       "--quantum 4 --quiet --no-summary "
                       "--csv sc_diurnal_q.csv"),
              0);
    expectFixture("sc_diurnal_q.csv", "serve_diurnal_quantum.csv");
}

/** A wall-bounded diurnal replay (CSV only): pins the tenant mode's
 *  run end when nothing fits the wall, and index rotation. */
TEST_F(ServeCoreGolden, DiurnalWallReplayMatchesGoldenBytes)
{
    ASSERT_EQ(runQuiet("./diva_serve --arrivals diurnal:rate=10,seed=4,"
                       "hold=0.5,qos=4 --steps 0 --policies all "
                       "--wall-s 1.5 --quiet --no-summary "
                       "--csv sc_diurnal_w.csv"),
              0);
    expectFixture("sc_diurnal_w.csv", "serve_diurnal_wall.csv");
}

// ---------------------------------------------- coalescing equivalence

/** Minimal serve_core client: fixed per-task costs, a billing log. */
struct MiniClient
{
    struct Task
    {
        double arrival = 0.0;
        double depart = 0.0;
        double rate = 0.0;
        std::uint64_t steps = 0;
        int priority = 0;
        double deadline = 0.0;
        double costSec = 0.0;
    };

    std::vector<Task> tasks;
    std::vector<serve_core::TaskCore> cores;
    double switchSec = 0.0005;

    /** Chronological (idx, stepStartSec, latencySec) billing log. */
    std::vector<std::tuple<std::uint32_t, double, double>> stepLog;
    std::vector<std::uint32_t> switchLog;

    explicit MiniClient(std::vector<Task> t)
        : tasks(std::move(t)), cores(tasks.size())
    {
    }

    bool owns(const serve_core::Executor &, std::uint32_t) const
    {
        return true;
    }
    double arrivalSec(std::uint32_t i) const { return tasks[i].arrival; }
    double departSec(std::uint32_t i) const { return tasks[i].depart; }
    double rateSps(std::uint32_t i) const { return tasks[i].rate; }
    double qosDeadlineSec(std::uint32_t i) const
    {
        return tasks[i].deadline;
    }
    std::uint64_t stepLimit(std::uint32_t i) const
    {
        return tasks[i].steps;
    }
    int priority(std::uint32_t i) const { return tasks[i].priority; }
    double stepSeconds(const serve_core::Executor &,
                       std::uint32_t i) const
    {
        return tasks[i].costSec;
    }
    double switchSeconds(const serve_core::Executor &) const
    {
        return switchSec;
    }
    serve_core::TaskCore &core(std::uint32_t i) { return cores[i]; }
    const serve_core::TaskCore &core(std::uint32_t i) const
    {
        return cores[i];
    }
    void onSwitch(serve_core::Executor &, std::uint32_t i)
    {
        switchLog.push_back(i);
    }
    void onStep(serve_core::Executor &, std::uint32_t i,
                double stepStartSec, double latencySec, double,
                double)
    {
        stepLog.emplace_back(i, stepStartSec, latencySec);
    }
    void onRetire(serve_core::Executor &, std::uint32_t) {}
};

serve_core::Executor
freshExecutor(const MiniClient &c)
{
    serve_core::Executor ex;
    ex.arrivals.resize(c.tasks.size());
    for (std::size_t i = 0; i < c.tasks.size(); ++i)
        ex.arrivals[i] = std::uint32_t(i);
    std::stable_sort(ex.arrivals.begin(), ex.arrivals.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return c.tasks[a].arrival < c.tasks[b].arrival;
                     });
    return ex;
}

std::vector<MiniClient::Task>
mixedTasks()
{
    std::vector<MiniClient::Task> tasks;
    for (int i = 0; i < 6; ++i) {
        MiniClient::Task t;
        t.arrival = 0.002 * double(i);
        t.steps = 40 + std::uint64_t(7 * i);
        t.costSec = 0.0009 + 0.0001 * double(i % 3);
        t.priority = i % 2;
        tasks.push_back(t);
    }
    // Sparse stragglers that run alone (pure coalescing regime) and
    // one rate-gated task (gate/promotion regime).
    MiniClient::Task solo;
    solo.arrival = 1.0;
    solo.steps = 64;
    solo.costSec = 0.001;
    tasks.push_back(solo);
    MiniClient::Task gated;
    gated.arrival = 0.001;
    gated.steps = 30;
    gated.rate = 20.0;
    gated.costSec = 0.0012;
    tasks.push_back(gated);
    return tasks;
}

/**
 * Drive one executor to completion with the multi-quantum fast path
 * enabled and a second with it disabled (Config::coalesce = false, so
 * every quantum expiry pays the full re-enqueue + promote + pick round
 * trip). Both must land on bit-identical clocks, per-task state and
 * billing logs -- coalescing k quanta may only skip k scheduler round
 * trips, never change the schedule. Each skipped round trip is one
 * saved dispatch, so the step-by-step run's dispatch count must equal
 * dispatches + coalescedQuanta of the coalesced run exactly.
 */
void
expectCoalescingEquivalence(serve_core::Config cfg)
{
    cfg.coalesce = true;
    MiniClient one(mixedTasks());
    serve_core::Executor exOne = freshExecutor(one);
    serve_core::runUntil(one, exOne, cfg, serve_core::kInfSec);

    cfg.coalesce = false;
    MiniClient single(mixedTasks());
    serve_core::Executor exSingle = freshExecutor(single);
    serve_core::runUntil(single, exSingle, cfg, serve_core::kInfSec);

    EXPECT_EQ(exOne.nowSec, exSingle.nowSec);
    EXPECT_EQ(exOne.counters.steps, single.stepLog.size());
    EXPECT_GT(exOne.counters.coalescedQuanta, 0u)
        << "workload never exercised the fast path";
    EXPECT_EQ(exSingle.counters.coalescedQuanta, 0u);
    EXPECT_EQ(exSingle.counters.dispatches,
              exOne.counters.dispatches + exOne.counters.coalescedQuanta)
        << "each coalesced quantum must stand in for exactly one "
        << "dispatch of the step-by-step run";
    ASSERT_EQ(one.stepLog.size(), single.stepLog.size());
    for (std::size_t s = 0; s < one.stepLog.size(); ++s)
        ASSERT_TRUE(one.stepLog[s] == single.stepLog[s])
            << "step " << s << " diverged: coalesced=(task "
            << std::get<0>(one.stepLog[s]) << ", start "
            << std::get<1>(one.stepLog[s]) << ", lat "
            << std::get<2>(one.stepLog[s]) << ") single=(task "
            << std::get<0>(single.stepLog[s]) << ", start "
            << std::get<1>(single.stepLog[s]) << ", lat "
            << std::get<2>(single.stepLog[s]) << ")";
    EXPECT_EQ(one.switchLog, single.switchLog);
    for (std::size_t i = 0; i < one.tasks.size(); ++i) {
        EXPECT_EQ(one.cores[i].done, single.cores[i].done) << "task " << i;
        EXPECT_EQ(one.cores[i].completed, single.cores[i].completed);
        EXPECT_EQ(one.cores[i].completionSec,
                  single.cores[i].completionSec);
    }
}

TEST(ServeCoreCoalescing, FleetModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg; // fleet-mode defaults
    cfg.policy = SchedPolicy::kFifo;
    cfg.quantumIters = 4;
    expectCoalescingEquivalence(cfg);
}

TEST(ServeCoreCoalescing, TenantModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg;
    cfg.policy = SchedPolicy::kRoundRobin;
    cfg.quantumIters = 3;
    cfg.mode = serve_core::Mode::kTenant;
    cfg.rateGates = true; // keep the rate-gated task gated
    expectCoalescingEquivalence(cfg);
}

TEST(ServeCoreCoalescing, EdfModeMultiQuantumAdvanceEqualsSingleSteps)
{
    serve_core::Config cfg;
    cfg.policy = SchedPolicy::kEdf;
    cfg.quantumIters = 2;
    expectCoalescingEquivalence(cfg);
}

// ------------------------------------------ tenant-mode behaviours

/**
 * One case per tenant-mode behaviour (serve_core::Mode): each builds a
 * schedule that only that behaviour produces, so dropping it from the
 * tenant mode fails the case.  All tasks take 1 ms steps unless noted;
 * the client bills 0.5 ms per task switch.
 */
MiniClient::Task
task(double arrival, std::uint64_t steps, double cost = 0.001)
{
    MiniClient::Task t;
    t.arrival = arrival;
    t.steps = steps;
    t.costSec = cost;
    return t;
}

/** Run a tenant-mode round-robin executor to the end of its events. */
serve_core::Executor
runTenant(MiniClient &c, std::uint64_t quantum, double wall = 0.0)
{
    serve_core::Config cfg;
    cfg.mode = serve_core::Mode::kTenant;
    cfg.rateGates = false;
    cfg.quantumIters = quantum;
    cfg.wallLimitSec = wall;
    serve_core::Executor ex = freshExecutor(c);
    serve_core::runUntil(c, ex, cfg, serve_core::kInfSec);
    return ex;
}

std::vector<std::uint32_t>
pickOrder(const MiniClient &c)
{
    std::vector<std::uint32_t> order;
    for (const auto &[idx, start, lat] : c.stepLog)
        if (order.empty() || order.back() != idx)
            order.push_back(idx);
    return order;
}

TEST(ServeCoreTenantMode, ArrivalPreemptsOnlyAfterTheStepStart)
{
    // Task 2 lands at 4.2 ms, during the switch into task 1 (4.0 ->
    // 4.5 ms): before task 1's first step starts, so it does not cut
    // that quantum short.  Task 1 runs its full quantum of 4 and
    // task 2 starts after one more switch, at 9.0 ms.  The fleet's
    // any-arrival-at-or-before-now check would preempt after task 1's
    // first step and hand task 2 the engine at 6.0 ms.
    MiniClient c({task(0.0, 4), task(0.0, 8), task(0.0042, 2)});
    runTenant(c, 4);
    std::vector<double> task1_starts;
    double task2_first = -1.0;
    for (const auto &[idx, start, lat] : c.stepLog) {
        if (idx == 1 && task2_first < 0.0)
            task1_starts.push_back(start);
        if (idx == 2 && task2_first < 0.0)
            task2_first = start;
    }
    ASSERT_EQ(task1_starts.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(task1_starts[k], 0.0045 + 0.001 * double(k), 1e-12);
    EXPECT_NEAR(task2_first, 0.009, 1e-12);
}

TEST(ServeCoreTenantMode, IdleJumpSkipsDepartureBlockedArrivals)
{
    // Task 1 arrives at 10 ms but departs at 10.5 ms: the switch plus
    // one step cannot end before it leaves, so it can never run.  The
    // idle jump skips it and the run ends when task 0 finishes at
    // 2 ms; without the skip the clock would jump to 10 ms first.
    MiniClient::Task blocked = task(0.010, 4);
    blocked.depart = 0.0105;
    MiniClient c({task(0.0, 2), blocked});
    const serve_core::Executor ex = runTenant(c, 1);
    EXPECT_NEAR(ex.nowSec, 0.002, 1e-12);
    EXPECT_EQ(c.cores[1].done, 0u);
}

TEST(ServeCoreTenantMode, RoundRobinRotatesOverTaskIndices)
{
    // Tasks 0 and 1 arrive at 0, task 2 at 0.1 ms.  Index rotation
    // runs 0, 1, 2, 0; enqueue order would put the re-enqueued task 0
    // ahead of the later arrival: 0, 1, 0, 2.
    MiniClient c({task(0.0, 3), task(0.0, 3), task(0.0001, 3)});
    runTenant(c, 1);
    const std::vector<std::uint32_t> order = pickOrder(c);
    ASSERT_GE(order.size(), 4u);
    EXPECT_EQ(std::vector<std::uint32_t>(order.begin(), order.begin() + 4),
              (std::vector<std::uint32_t>{0, 1, 2, 0}));
}

TEST(ServeCoreTenantMode, NoWallFitEndsTheRun)
{
    // Wall 10 ms.  Tasks 0 and 1 (4 ms steps) take 0-4 and 4.5-8.5 ms;
    // then neither fits another step before the wall and the run
    // ends at 8.5 ms.  Task 2 (0.2 ms steps, arriving at 9 ms) would
    // fit, but the run is already over; retiring the unfit tasks and
    // serving on would run it.
    MiniClient c({task(0.0, 2, 0.004), task(0.0, 5, 0.004),
                  task(0.009, 1, 0.0002)});
    const serve_core::Executor ex = runTenant(c, 1, 0.010);
    EXPECT_NEAR(ex.nowSec, 0.0085, 1e-12);
    EXPECT_EQ(c.cores[2].done, 0u);
}

// ------------------------------------------------------- policy picks

/**
 * One case per policy, in fleet mode (quantum 1).  Task 0 holds the
 * engine for one 10 ms step while the others arrive; when it finishes
 * they are all ready, so the order they then run in is the policy's
 * ReadyKey order.
 */
std::vector<std::uint32_t>
fleetPickOrder(std::vector<MiniClient::Task> tasks, SchedPolicy policy)
{
    tasks.insert(tasks.begin(), task(0.0, 1, 0.010));
    MiniClient c(std::move(tasks));
    serve_core::Config cfg;
    cfg.policy = policy;
    serve_core::Executor ex = freshExecutor(c);
    serve_core::runUntil(c, ex, cfg, serve_core::kInfSec);
    return pickOrder(c);
}

TEST(ServeCorePolicy, FifoRunsEarliestArrivalAndTiesGoToLowerIndex)
{
    // Arrivals 3, 1 and 1 ms: FIFO runs each to completion in arrival
    // order, and the tie between tasks 2 and 3 goes to task 2.
    EXPECT_EQ(fleetPickOrder({task(0.003, 2), task(0.001, 2),
                              task(0.001, 2)},
                             SchedPolicy::kFifo),
              (std::vector<std::uint32_t>{0, 2, 3, 1}));
}

TEST(ServeCorePolicy, PriorityRunsLargerValueAndTiesGoToEarlierArrival)
{
    MiniClient::Task low = task(0.001, 2);
    low.priority = 1;
    MiniClient::Task late = task(0.003, 2);
    late.priority = 5;
    MiniClient::Task early = task(0.002, 2);
    early.priority = 5;
    // Priority 5 beats the earlier-arriving priority 1; between the
    // two priority-5 tasks the earlier arrival (task 3) goes first.
    EXPECT_EQ(fleetPickOrder({low, late, early}, SchedPolicy::kPriority),
              (std::vector<std::uint32_t>{0, 3, 2, 1}));
}

TEST(ServeCorePolicy, EdfRunsEarliestDeadlineAndUntargetedTasksLast)
{
    MiniClient::Task later = task(0.003, 2);
    later.deadline = 0.5;
    MiniClient::Task sooner = task(0.002, 2);
    sooner.deadline = 0.2;
    // Task 1 arrives first but has no target, so it runs last.
    EXPECT_EQ(fleetPickOrder({task(0.001, 2), later, sooner},
                             SchedPolicy::kEdf),
              (std::vector<std::uint32_t>{0, 3, 2, 1}));
}

TEST(ServeCorePolicy, FleetRoundRobinFollowsEnqueueOrder)
{
    // Enqueued in arrival order (2, 3, 1); each step re-enqueues its
    // task at the back, so the rotation repeats that order.
    EXPECT_EQ(fleetPickOrder({task(0.003, 2), task(0.001, 2),
                              task(0.002, 2)},
                             SchedPolicy::kRoundRobin),
              (std::vector<std::uint32_t>{0, 2, 3, 1, 2, 3, 1}));
}

// ------------------------------------------- thread-count determinism

/**
 * The CI acceptance run distilled in-process: a generated diurnal
 * trace on a heterogeneous fleet must emit bit-identical CSV/JSON
 * whether epochs run on 1 or 4 worker threads. Running it in-process
 * (instead of via the CLI) puts the epoch parallelism under TSan in
 * the sanitizer job.
 */
TEST(ServeCoreDeterminism, FleetEmittersAreByteStableAcrossThreadCounts)
{
    std::string err;
    const auto gen = parseTraceGenSpec(
        "diurnal:rate=18,horizon=4,seed=11,qos=3,hold=3,cap=120", &err);
    ASSERT_TRUE(gen.has_value()) << err;
    const ArrivalTrace trace = generateTrace(*gen);

    const auto diva_pods = parsePodTemplate("df=DiVa,count=2", &err);
    ASSERT_TRUE(diva_pods.has_value()) << err;
    const auto os_pods = parsePodTemplate("df=OS", &err);
    ASSERT_TRUE(os_pods.has_value()) << err;
    FleetSpec spec = buildFleet({*diva_pods, *os_pods});
    spec.placement = PlacementKind::kLoadAware;
    spec.rebalance.enabled = true;
    spec.controlIntervalSec = 0.5;

    auto emitAll = [](const FleetResult &r) {
        std::ostringstream os;
        writeFleetTenantCsv(os, r);
        writeFleetPodCsv(os, r);
        writeFleetJson(os, r, true);
        return os.str();
    };

    SweepOptions opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    const FleetResult one = simulateFleet(spec, trace, runner, 1);
    ASSERT_TRUE(one.ok()) << one.error;
    const FleetResult four = simulateFleet(spec, trace, runner, 4);
    ASSERT_TRUE(four.ok()) << four.error;

    EXPECT_TRUE(emitAll(one) == emitAll(four))
        << "fleet emitters diverged across engine thread counts";
}

} // namespace
} // namespace diva
