/**
 * @file
 * Self-tests of the repository benchmark: the order statistics and
 * span arithmetic its metrics rest on, the byte digest, and the
 * output checks -- run on small real results from the library, which
 * must pass, and on tampered copies, which must be caught.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/accelerator_config.h"
#include "arrivals/generate.h"
#include "arrivals/replay.h"
#include "checks.h"
#include "fleet/engine.h"
#include "measure.h"
#include "sweep/runner.h"
#include "workloads.h"

using namespace perfbench;
using namespace diva;

namespace
{

using perfbench::Layer; // not diva::Layer, the network layer

std::uint64_t
hashBytes(const std::string &bytes)
{
    HashSink sink;
    sink.stream() << bytes;
    return sink.digest();
}

// Expected values from Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod)
{
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.median, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.median, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);

    q = quartiles({5, 1, 4, 2, 3, 9, 7});
    EXPECT_DOUBLE_EQ(q.q1, 2.0);
    EXPECT_DOUBLE_EQ(q.median, 4.0);
    EXPECT_DOUBLE_EQ(q.q3, 7.0);

    q = quartiles({3.5});
    EXPECT_DOUBLE_EQ(q.q1, 3.5);
    EXPECT_DOUBLE_EQ(q.q3, 3.5);
}

TEST(ReferencePass, AllocatesNothingAfterTheFirstCall)
{
    referencePassSeconds();
    const double before = heapBytesInUse();
    EXPECT_GT(referencePassSeconds(), 0.0);
    EXPECT_EQ(heapBytesInUse(), before);
}

TEST(HashSink, DigestDependsOnBytesNotOnHowTheyWereWritten)
{
    std::string text;
    for (int i = 0; i < 30000; ++i)
        text += std::to_string(i * 7919) + ",";
    ASSERT_GT(text.size(), 3u * 64 * 1024);

    HashSink whole;
    whole.stream() << text;
    HashSink pieces;
    for (std::size_t i = 0; i < text.size(); i += 1000) {
        pieces.stream() << text.substr(i, 1000);
        pieces.stream().flush();
    }
    HashSink chars;
    for (char c : text)
        chars.stream().put(c);

    EXPECT_EQ(whole.bytes(), text.size());
    EXPECT_EQ(whole.digest(), pieces.digest());
    EXPECT_EQ(whole.digest(), chars.digest());
    EXPECT_EQ(whole.digest(), hashBytes(text));

    std::string flipped = text;
    flipped[100000] ^= 1;
    EXPECT_NE(hashBytes(flipped), whole.digest());
    EXPECT_NE(hashBytes(text + "\n"), whole.digest());
    EXPECT_NE(hashBytes(""), hashBytes(std::string(1, '\0')));
}

Span
span(const char *name, Layer layer, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren)
{
    Tracer t;
    const int root = t.add(span("iteration", Layer::kBench, 0, 10, -1));
    const int a = t.add(span("a", Layer::kFleet, 1, 4, root));
    t.add(span("b", Layer::kFleet, 3, 6, root)); // overlaps a
    t.add(span("c", Layer::kObs, 2, 3, a));
    // Outside any "iteration" root: not counted.
    t.add(span("decideAdmission", Layer::kArrivals, 11, 12, -1));

    const auto self = t.selfTimes("iteration");
    EXPECT_DOUBLE_EQ(self.at(Layer::kBench), 5.0); // 10 - [1,6]
    EXPECT_DOUBLE_EQ(self.at(Layer::kFleet), 2.0 + 3.0);
    EXPECT_DOUBLE_EQ(self.at(Layer::kObs), 1.0);
    EXPECT_EQ(self.count(Layer::kArrivals), 0u);
}

TEST(Tracer, FoldedPhasesNestAndClipToTheirParent)
{
    Tracer t;
    const int call = t.add(span("simulateFleet", Layer::kFleet, 0, 1, -1));
    std::map<std::string, obs::Profiler::Phase> phases;
    phases["fleet_run"] = {0.6, 1};
    phases["placement"] = {0.2, 23};
    phases["epoch_serve"] = {0.9, 23}; // more than fleet_run: clipped
    phases["mystery"] = {0.1, 1};
    t.foldPhases(call, phases);

    std::map<std::string, Span> by;
    for (const Span &s : t.spans())
        by[s.name] = s;
    EXPECT_EQ(by["fleet_run"].parent, call);
    EXPECT_EQ(by["placement"].parent, by["epoch_serve"].parent);
    EXPECT_EQ(t.spans()[std::size_t(by["placement"].parent)].name,
              "fleet_run");
    EXPECT_EQ(by["epoch_serve"].layer, Layer::kServeCore);
    EXPECT_DOUBLE_EQ(by["epoch_serve"].end, 0.6);
    EXPECT_EQ(by["mystery"].parent, call);
    EXPECT_EQ(by["mystery"].layer, Layer::kFleet);

    Tracer rooted;
    const int r = rooted.add(span("iteration", Layer::kBench, 0, 1, -1));
    const int c = rooted.add(span("simulateFleet", Layer::kFleet, 0, 1, r));
    rooted.foldPhases(c, phases);
    const auto self = rooted.selfTimes("iteration");
    double total = 0.0;
    for (const auto &[layer, s] : self)
        total += s;
    EXPECT_NEAR(total, 1.0, 1e-12); // self times tile the root
}

TEST(Catalogue, EveryLayerHasASelfTimeAndUnitsAreKnown)
{
    const auto &c = perLayerCatalogue();
    for (Layer l : allLayers())
        EXPECT_EQ(c.count(std::string("self_s.") + layerName(l)), 1u);
    for (const auto &[name, unit] : c)
        EXPECT_TRUE(unit == "s" || unit == "ns" || unit == "us" ||
                    unit == "count" || unit == "B" || unit == "frac" ||
                    unit == "B/session" || unit == "B/scenario")
            << name << " " << unit;
}

TEST(SweepAxes, SeededDrawsStayInsideTheValidRanges)
{
    for (std::uint64_t seed = 1; seed < 64; ++seed) {
        const SweepAxes a = drawSweepAxes(seed);
        ASSERT_EQ(a.scales.size(), 3u);
        ASSERT_EQ(a.batches.size(), 3u);
        ASSERT_EQ(a.microbatches.size(), 2u);
        EXPECT_EQ(a.microbatches, (std::vector<int>{0, 4}));
        for (int b : a.batches)
            EXPECT_TRUE(b >= 24 && b <= 120 && b % 8 == 0) << b;
        for (int s : a.scales)
            EXPECT_TRUE(s >= 48 && s <= 168) << s;
    }
    EXPECT_EQ(drawSweepAxes(7).scales, drawSweepAxes(7).scales);
}

TEST(SweepAxes, RangeEndsAreValidForEveryModelOnChipAndPods)
{
    SweepSpec spec;
    spec.configs = {divaDefault(true)};
    spec.models = knownModels();
    spec.modelScales = {48, 168};
    spec.batches = {24, 120};
    spec.microbatches = {0, 4};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    for (int chips : {4, 8}) {
        MultiChipConfig pod;
        pod.numChips = chips;
        spec.pods.push_back(pod);
    }
    SweepRunner runner(SweepOptions{.threads = 2});
    const SweepReport report = runner.run(spec);
    EXPECT_EQ(report.results.size(), 9u * 2 * 2 * 2 * 3);
    EXPECT_TRUE(checkSweep(report, report.results.size()).empty());
}

// ------------------------------------------------------ output checks

ArrivalTrace
smallTrace(const char *spec)
{
    std::string err;
    const auto gen = parseTraceGenSpec(spec, &err);
    EXPECT_TRUE(gen) << err;
    return generateTrace(*gen);
}

FleetResult
smallFleet(std::size_t *sessions)
{
    const ArrivalTrace trace =
        smallTrace("diurnal:rate=4,horizon=64,seed=5,qos=2,cap=60");
    *sessions = trace.jobs.size();
    FleetSpec spec = buildFleet({defaultPodGroup(3)});
    spec.rebalance.enabled = true;
    return simulateFleet(spec, trace);
}

TEST(CheckFleet, RealResultPassesAndTamperingIsCaught)
{
    std::size_t sessions = 0;
    const FleetResult good = smallFleet(&sessions);
    ASSERT_TRUE(good.ok()) << good.error;
    ASSERT_GT(good.totalSteps, 0u);
    EXPECT_TRUE(checkFleet(good, sessions).empty());

    FleetResult f = good;
    f.pods[0].stepsDone += 1;
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.tenants[0].stepsDone += 1;
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.pods[0].energyJ *= 1.001;
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.rejectedCount += 1;
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.tenants.pop_back();
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.pods[0].utilization = 1.5;
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    f = good;
    f.error = "boom";
    EXPECT_FALSE(checkFleet(f, sessions).empty());

    EXPECT_TRUE(checkTelemetry(0, 10).empty());
    EXPECT_FALSE(checkTelemetry(1, 10).empty());
    EXPECT_FALSE(checkTelemetry(0, 0).empty());
}

TEST(CheckFleet, TopPodShare)
{
    FleetResult f;
    f.pods.resize(4);
    EXPECT_DOUBLE_EQ(topPodShare(f), 0.0);
    f.pods[0].stepsDone = 97;
    f.pods[2].stepsDone = 3;
    EXPECT_DOUBLE_EQ(topPodShare(f), 0.97);
    EXPECT_FALSE(checkShare("fleet.top_pod_share", 0.97, 0.99, 1.0).empty());
    EXPECT_TRUE(checkShare("fleet.top_pod_share", 0.995, 0.99, 1.0).empty());
}

TEST(CheckSweep, RealReportPassesAndTamperingIsCaught)
{
    SweepSpec spec;
    spec.configs = {divaDefault(true), systolicOs(false)};
    spec.models = {"MobileNet", "LSTM-small"};
    spec.batches = {16, 32};
    const auto expansion = spec.expand();
    SweepRunner runner;
    const SweepReport good = runner.run(expansion.scenarios);
    const std::size_t n = expansion.scenarios.size();
    ASSERT_EQ(good.failures, 0u);
    EXPECT_TRUE(checkSweep(good, n).empty());

    SweepReport r = good;
    r.results[1].error = "fatal: tampered";
    EXPECT_FALSE(checkSweep(r, n).empty()); // error and count mismatch
    r.failures = 1;
    EXPECT_FALSE(checkSweep(r, n).empty()); // a failure is a failure

    r = good;
    r.results.pop_back();
    EXPECT_FALSE(checkSweep(r, n).empty());
}

TEST(CheckServe, RealReplayPassesAndTamperingIsCaught)
{
    ReplaySpec spec;
    spec.trace = smallTrace(
        "poisson:rate=4,horizon=20,seed=3,steps=8,hold=4,qos=500,cap=40");
    spec.config = divaDefault(true);
    spec.admission = true;
    const ServeResult good = replayTrace(spec);
    ASSERT_TRUE(good.ok()) << good.error;
    const std::size_t n = spec.trace.jobs.size();
    const std::size_t admitted = good.admittedCount();
    ASSERT_GT(admitted, 0u);
    ASSERT_LT(admitted, n);
    EXPECT_TRUE(checkServe(good, n, admitted).empty());

    EXPECT_FALSE(checkServe(good, n, admitted + 1).empty());
    EXPECT_FALSE(checkServe(good, n + 1, admitted).empty());

    ServeResult r = good;
    for (TenantMetrics &t : r.tenants)
        if (!t.admitted) {
            t.stepsDone = 3; // a shed session that ran
            break;
        }
    EXPECT_FALSE(checkServe(r, n, admitted).empty());

    r = good;
    r.totalEnergyJ *= 1.01;
    EXPECT_FALSE(checkServe(r, n, admitted).empty());
}

TEST(CountLedger, CountsMustRepeatExactly)
{
    CountLedger ledger;
    EXPECT_TRUE(ledger.record({{"steps", 10}, {"events", 4}}).empty());
    EXPECT_TRUE(ledger.record({{"steps", 10}, {"events", 4}}).empty());
    EXPECT_FALSE(ledger.record({{"steps", 11}, {"events", 4}}).empty());
    EXPECT_FALSE(ledger.record({{"steps", 10}}).empty());
    EXPECT_FALSE(
        ledger.record({{"steps", 10}, {"events", 4}, {"new", 1}}).empty());
}

} // namespace
