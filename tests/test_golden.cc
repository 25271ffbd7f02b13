/**
 * @file
 * Golden regression tests: exact cycle counts and traffic for
 * hand-computable GEMMs on every engine, locking the cycle models
 * against accidental drift (each expected value is derived in the
 * accompanying comment from the model equations), and byte-exact
 * fixtures under tests/golden/csv/ for the sweep CSV (every dataflow,
 * every backend, micro-batched passes), the mixed sweep's JSON and the
 * serve telemetry CSV, locking the cycle models and the CSV/JSON
 * writers against drift.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "gemm/engine.h"
#include "obs/slo.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "tenant/serve.h"

namespace diva
{
namespace
{

GemmResult
computeOnly(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    GemmOptions opt;
    opt.writeOutputToDram = false;
    opt.lhsFromDram = false;
    opt.rhsFromDram = false;
    return GemmEngineModel::create(cfg)->simulate(shape, opt);
}

TEST(Golden, WsSingleTileGemm)
{
    // (128,128,128), one tile: latch 128/8 = 16, stream
    // 128 + 128 + 128 - 1 = 383 -> 399 compute cycles.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 128, 128));
    EXPECT_EQ(r.computeCycles, 399u);
    // No operand traffic; total = compute + 100 latency.
    EXPECT_EQ(r.cycles, 499u);
    EXPECT_EQ(r.dram.total(), 0u);
}

TEST(Golden, WsMultiTileGemm)
{
    // (256,256,256): 2x2 tiles of (128,128); each costs 16 + 256 +
    // 128 + 128 - 1 = 527 -> 4 * 527 = 2108.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(256, 256, 256));
    EXPECT_EQ(r.computeCycles, 2108u);
}

TEST(Golden, WsTinyKGemm)
{
    // (128,1,128): latch ceil(1/8)=1, stream 128 + 1 + 128 - 1 = 256
    // -> 257 compute cycles for 16384 MACs (util 0.39%).
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 1, 128));
    EXPECT_EQ(r.computeCycles, 257u);
}

TEST(Golden, WsDoubleBufferedWeights)
{
    // (256,256,256) with double buffering: first tile 16 + 527-16=527
    // full; remaining 3 tiles max(16, 511+16... each tile stream=527-16
    // Compute directly: latch=16, stream=511 (256+128+128-1).
    // Non-overlapped: 4*(16+511) = 2108. Overlapped: (16+511) +
    // 3*max(16,511) = 527 + 1533 = 2060.
    AcceleratorConfig cfg = tpuV3Ws();
    cfg.wsDoubleBufferWeights = true;
    const GemmResult r = computeOnly(cfg, GemmShape(256, 256, 256));
    EXPECT_EQ(r.computeCycles, 2060u);
}

TEST(Golden, OsSingleTileGemm)
{
    // (128,64,128): stream 64 + 128 + 128 - 1 = 319, drain
    // ceil(128/8) = 16 -> 335.
    const GemmResult r =
        computeOnly(systolicOs(false), GemmShape(128, 64, 128));
    EXPECT_EQ(r.computeCycles, 335u);
}

TEST(Golden, OsPartialTileGemm)
{
    // (64,32,64): one partial tile: 32 + 64 + 64 - 1 = 159, drain
    // ceil(64/8) = 8 -> 167.
    const GemmResult r =
        computeOnly(systolicOs(false), GemmShape(64, 32, 64));
    EXPECT_EQ(r.computeCycles, 167u);
}

TEST(Golden, OuterProductSingleTile)
{
    // (128,64,128): max(K=64, drain 16) + 2 = 66.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(128, 64, 128));
    EXPECT_EQ(r.computeCycles, 66u);
}

TEST(Golden, OuterProductDrainBound)
{
    // (128,1,128): max(1, 16) + 2 = 18 -- the drain, not K, binds.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(128, 1, 128));
    EXPECT_EQ(r.computeCycles, 18u);
}

TEST(Golden, OuterProductMultiTile)
{
    // (256,100,300): tiles_m=2, tiles_n=3 -> 6 tiles, each
    // max(100,16)+2 = 102 -> 612.
    const GemmResult r =
        computeOnly(divaDefault(false), GemmShape(256, 100, 300));
    EXPECT_EQ(r.computeCycles, 612u);
}

TEST(Golden, TrafficSmallGemmWithDram)
{
    // (128,128,128) from DRAM: reads 2*128*128*2 = 65536 B, writes
    // 128*128*4 = 65536 B; memory cycles = ceil(131072 / 478.72..)
    // = 274.
    const GemmResult r = GemmEngineModel::create(divaDefault(false))
                             ->simulate(GemmShape(128, 128, 128));
    EXPECT_EQ(r.dram.readBytes, 65536u);
    EXPECT_EQ(r.dram.writeBytes, 65536u);
    EXPECT_EQ(r.memoryCycles, 274u);
    // Memory-bound: 274 > compute 130 -> total 274 + 100.
    EXPECT_EQ(r.cycles, 374u);
}

TEST(Golden, BatchedScalesExactly)
{
    const auto engine = GemmEngineModel::create(divaDefault(false));
    GemmOptions opt;
    opt.writeOutputToDram = false;
    opt.lhsFromDram = false;
    opt.rhsFromDram = false;
    const GemmResult one =
        engine->simulateBatched(GemmShape(128, 64, 128), 1, opt);
    const GemmResult many =
        engine->simulateBatched(GemmShape(128, 64, 128), 37, opt);
    EXPECT_EQ(many.computeCycles, 37 * one.computeCycles);
    // Latency charged once per train, not per GEMM.
    EXPECT_EQ(many.cycles, many.computeCycles + 100u);
}

TEST(Golden, WsSramPortRates)
{
    // Table I per-cycle rates feed the SRAM energy: WS reads
    // 128*2 + 128*8*2 = 2304 B and writes 128*4 = 512 B per compute
    // cycle.
    const GemmResult r = computeOnly(tpuV3Ws(), GemmShape(128, 128, 128));
    EXPECT_EQ(r.sramReadBytes, 399u * 2304u);
    EXPECT_EQ(r.sramWriteBytes, 399u * 512u);
}

// ------------------------------------------------------- CSV fixtures

std::string
csvFixture(const std::string &name)
{
    std::ifstream in(std::string(DIVA_SOURCE_DIR) + "/tests/golden/csv/" +
                         name,
                     std::ios::binary);
    std::ostringstream whole;
    whole << in.rdbuf();
    return whole.str();
}

/**
 * A sweep whose CSV and JSON hold every cell shape the writers emit:
 * a chip row, a pod row (link cells), a GPU row (empty integral cells
 * and "nan" metrics in the CSV, null ones in the JSON), and two kinds of failing scenario -- an unknown
 * model whose name and error message both need RFC-4180 quoting, and
 * a pod with more chips than the batch has samples, whose error cell
 * needs none.
 */
SweepReport
sweepGoldenReport()
{
    SweepSpec spec;
    spec.configs = {divaDefault(true)};
    spec.models = {"SqueezeNet", "Squeeze,\"Net\""};
    spec.batches = {8};
    spec.algorithms = {TrainingAlgorithm::kDpSgd};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip,
                     SweepBackend::kGpu};
    MultiChipConfig pair, wide;
    pair.numChips = 2;
    wide.numChips = 16;
    spec.pods = {pair, wide};
    spec.gpus = {GpuConfig::v100Fp32()};
    SweepRunner runner(SweepOptions{});
    return runner.run(spec);
}

/**
 * Every dataflow's cycle model through both simulation backends: WS
 * with and without double-buffered weight latches (the latter under
 * its own config name), OS and DiVa each with the PPU off and on,
 * SqueezeNet at an odd batch of 37 -- monolithic and in micro-batches
 * of 5, so the last pass is a 2-example remainder -- under DP-SGD and
 * DP-SGD(R), on one chip and on a 4-chip pod. Captured from the tile
 * loops the closed-form cycle sums replaced.
 */
std::string
sweepDataflowsGoldenCsv()
{
    AcceleratorConfig ws_db = tpuV3Ws();
    ws_db.name = "Systolic-WS-DB";
    ws_db.wsDoubleBufferWeights = true;
    SweepSpec spec;
    spec.configs = {tpuV3Ws(),          ws_db,
                    systolicOs(false),  systolicOs(true),
                    divaDefault(false), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.batches = {37};
    spec.microbatches = {0, 5};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.backends = {SweepBackend::kSingleChip, SweepBackend::kMultiChip};
    MultiChipConfig quad;
    quad.numChips = 4;
    spec.pods = {quad};
    SweepRunner runner(SweepOptions{});
    std::ostringstream csv;
    writeCsv(csv, runner.run(spec));
    return csv.str();
}

/** A two-priority round-robin serve with fixed iteration costs and a
 *  global plus per-priority p99 target: series, sketch and SLO rows. */
std::string
telemetryGoldenCsv()
{
    ServeSpec s;
    s.workload.name = "golden";
    for (int i = 0; i < 3; ++i) {
        TenantJob j;
        j.name = "t" + std::to_string(i);
        j.model = "SqueezeNet";
        j.batch = 8;
        j.arrivalSec = 0.4 * i;
        j.steps = 12;
        j.priority = i % 2;
        s.workload.jobs.push_back(j);
    }
    s.config = divaDefault(true);
    s.policy = SchedPolicy::kRoundRobin;
    obs::RunTelemetry tel;
    tel.windowSec = 0.5;
    std::string err;
    EXPECT_TRUE(obs::parseSloSpec("0.15,1:0.12", &tel.slo, &err)) << err;
    s.opts.telemetry = &tel;
    IterationCost cost;
    cost.seconds = 0.05;
    cost.energyJ = 1.0;
    cost.resolvedBatch = 8;
    SwitchCost sw;
    sw.seconds = 0.01;
    sw.energyJ = 0.5;
    sw.dramBytes = 1024;
    const ServeResult r = runServeLoop(s, {cost, cost, cost}, sw);
    EXPECT_TRUE(r.ok()) << r.error;
    std::ostringstream csv;
    tel.writeCsv(csv);
    return csv.str();
}

TEST(GoldenCsv, SweepCsvMatchesFixture)
{
    const std::string want = csvFixture("sweep.csv");
    ASSERT_FALSE(want.empty()) << "sweep.csv fixture unreadable";
    std::ostringstream csv;
    writeCsv(csv, sweepGoldenReport());
    EXPECT_EQ(csv.str(), want);
}

TEST(GoldenCsv, SweepJsonMatchesFixture)
{
    const std::string want = csvFixture("sweep.json");
    ASSERT_FALSE(want.empty()) << "sweep.json fixture unreadable";
    std::ostringstream json;
    writeJson(json, sweepGoldenReport());
    EXPECT_EQ(json.str(), want);
}

TEST(GoldenCsv, SweepDataflowsCsvMatchesFixture)
{
    const std::string want = csvFixture("sweep_dataflows.csv");
    ASSERT_FALSE(want.empty()) << "sweep_dataflows.csv fixture unreadable";
    EXPECT_EQ(sweepDataflowsGoldenCsv(), want);
}

TEST(GoldenCsv, TelemetryCsvMatchesFixture)
{
    const std::string want = csvFixture("telemetry.csv");
    ASSERT_FALSE(want.empty()) << "telemetry.csv fixture unreadable";
    EXPECT_EQ(telemetryGoldenCsv(), want);
}

} // namespace
} // namespace diva
