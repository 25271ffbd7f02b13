/**
 * @file
 * Unit tests for the three GEMM-engine cycle models, checking the
 * dataflow-specific behaviors the paper builds its case on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "gemm/os_systolic.h"
#include "gemm/outer_product.h"
#include "gemm/ws_systolic.h"

namespace diva
{
namespace
{

GemmResult
simulate(const AcceleratorConfig &cfg, const GemmShape &shape,
         std::uint64_t count = 1, GemmOptions opt = {})
{
    return GemmEngineModel::create(cfg)->simulateBatched(shape, count,
                                                         opt);
}

TEST(EngineFactory, CreatesMatchingEngine)
{
    EXPECT_NE(dynamic_cast<WsSystolicModel *>(
                  GemmEngineModel::create(tpuV3Ws()).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<OsSystolicModel *>(
                  GemmEngineModel::create(systolicOs(false)).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<OuterProductModel *>(
                  GemmEngineModel::create(divaDefault()).get()),
              nullptr);
}

TEST(Engines, UsefulMacsIndependentOfEngine)
{
    const GemmShape s(300, 70, 500);
    const Macs expected = s.macs();
    EXPECT_EQ(simulate(tpuV3Ws(), s).usefulMacs, expected);
    EXPECT_EQ(simulate(systolicOs(false), s).usefulMacs, expected);
    EXPECT_EQ(simulate(divaDefault(), s).usefulMacs, expected);
}

TEST(Engines, UtilizationNeverExceedsOne)
{
    const GemmShape shapes[] = {
        {128, 128, 128}, {4096, 4096, 4096}, {1024, 1, 1024},
        {1, 1024, 1},    {17, 3, 999},
    };
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        for (const auto &s : shapes) {
            const GemmResult r = simulate(cfg, s);
            EXPECT_LE(r.utilization(cfg), 1.0)
                << cfg.name << " " << s.str();
            EXPECT_GT(r.cycles, 0u);
        }
    }
}

TEST(Engines, BatchedCountZeroIsEmpty)
{
    const GemmResult r = simulate(divaDefault(), GemmShape(8, 8, 8), 0);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.usefulMacs, 0u);
}

TEST(Engines, BatchedScalesCompute)
{
    const GemmShape s(256, 64, 256);
    const GemmResult one = simulate(divaDefault(), s, 1);
    const GemmResult ten = simulate(divaDefault(), s, 10);
    EXPECT_EQ(ten.computeCycles, 10 * one.computeCycles);
    EXPECT_EQ(ten.usefulMacs, 10 * one.usefulMacs);
    EXPECT_EQ(ten.dram.total(), 10 * one.dram.total());
}

TEST(Engines, InvalidShapeRejected)
{
    EXPECT_THROW(simulate(divaDefault(), GemmShape(0, 1, 1)),
                 std::logic_error);
}

TEST(WsSystolic, SmallKLeavesArrayIdle)
{
    // The paper's WS pathology: K=1 latches one of 128 PE rows, so
    // utilization cannot exceed 1/128 even before other overheads.
    const AcceleratorConfig cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false; // isolate compute behaviour
    const GemmResult r =
        simulate(cfg, GemmShape(4096, 1, 128), 1, opt);
    EXPECT_LE(r.utilization(cfg), 1.0 / 128.0 + 1e-9);
}

TEST(WsSystolic, LargeSquareGemmIsEfficient)
{
    const AcceleratorConfig cfg = tpuV3Ws();
    const GemmResult r = simulate(cfg, GemmShape(4096, 4096, 4096));
    EXPECT_GT(r.utilization(cfg), 0.5);
}

TEST(WsSystolic, ComputeCyclesCoverWeightFill)
{
    // A (1,K,1) GEMM is dominated by latching K/8 weight rows.
    const AcceleratorConfig cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r128 =
        simulate(cfg, GemmShape(1, 128, 1), 1, opt);
    // 16 fill cycles + 1 + 128 + 1 - 1 stream cycles.
    EXPECT_EQ(r128.computeCycles, 16u + 129u);
}

TEST(WsSystolic, DoubleBufferedWeightsNeverSlower)
{
    AcceleratorConfig dbuf = tpuV3Ws();
    dbuf.wsDoubleBufferWeights = true;
    const GemmShape shapes[] = {
        {128, 128, 128}, {1024, 1024, 1024}, {512, 1, 512},
        {64, 4096, 64},
    };
    GemmOptions opt;
    opt.writeOutputToDram = false;
    for (const auto &s : shapes) {
        const Cycles plain =
            simulate(tpuV3Ws(), s, 1, opt).computeCycles;
        const Cycles overlapped =
            simulate(dbuf, s, 1, opt).computeCycles;
        EXPECT_LE(overlapped, plain) << s.str();
    }
    // Multi-K-tile GEMMs must see a strict improvement.
    const Cycles plain =
        simulate(tpuV3Ws(), GemmShape(64, 4096, 64), 1, opt)
            .computeCycles;
    const Cycles overlapped =
        simulate(dbuf, GemmShape(64, 4096, 64), 1, opt).computeCycles;
    EXPECT_LT(overlapped, plain);
}

TEST(OsSystolic, SkewDominatesSmallK)
{
    // OS does not fix small-K GEMMs: a K=1 tile still pays the
    // PE_H + PE_W skew (Section IV-B).
    const AcceleratorConfig cfg = systolicOs(false);
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r = simulate(cfg, GemmShape(128, 1, 128), 1, opt);
    EXPECT_GE(r.computeCycles, 250u);
}

TEST(OuterProduct, KCyclesPerFullTile)
{
    // One full 128x128 output tile takes K cycles of accumulation
    // (plus constant fill), independent of K's size.
    const AcceleratorConfig cfg = divaDefault();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r64 =
        simulate(cfg, GemmShape(128, 64, 128), 1, opt);
    const GemmResult r512 =
        simulate(cfg, GemmShape(128, 512, 128), 1, opt);
    EXPECT_EQ(r512.computeCycles - r64.computeCycles, 512u - 64u);
}

TEST(OuterProduct, ThroughputIndependentOfKShape)
{
    // Same MAC count split as (M,K,N)=(128,256,128) vs (128,1,128)x256:
    // the outer-product engine keeps high throughput for both, while
    // WS collapses on the K=1 version.
    const AcceleratorConfig diva_cfg = divaDefault();
    const AcceleratorConfig ws_cfg = tpuV3Ws();
    GemmOptions opt;
    opt.writeOutputToDram = false;

    const GemmResult diva_batched =
        simulate(diva_cfg, GemmShape(128, 1, 128), 256, opt);
    const GemmResult ws_batched =
        simulate(ws_cfg, GemmShape(128, 1, 128), 256, opt);
    EXPECT_GT(diva_batched.utilization(diva_cfg),
              5.0 * ws_batched.utilization(ws_cfg));
}

TEST(OuterProduct, DrainOverlapBoundsTileCost)
{
    // With K=1 the tile cost is the drain time (128/R = 16), not
    // K + drain.
    AcceleratorConfig cfg = divaDefault();
    GemmOptions opt;
    opt.writeOutputToDram = false;
    const GemmResult r = simulate(cfg, GemmShape(128, 1, 128), 1, opt);
    EXPECT_LE(r.computeCycles, 16u + 2u);
}

TEST(Engines, MemoryBoundGemmLimitedByBandwidth)
{
    // A huge K=1 GEMM writing its output is DRAM-bound on every
    // engine: cycles ~ bytes / bytes-per-cycle.
    const GemmShape s(8192, 1, 8192);
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        const GemmResult r = simulate(cfg, s);
        EXPECT_GE(r.cycles, r.memoryCycles);
        EXPECT_GT(r.memoryCycles, 0u);
    }
}

TEST(Engines, SuppressedOutputReducesTrafficAndTime)
{
    const GemmShape s(1024, 4, 1024);
    GemmOptions keep;
    GemmOptions drop;
    drop.writeOutputToDram = false;
    const GemmResult with_write = simulate(divaDefault(), s, 64, keep);
    const GemmResult no_write = simulate(divaDefault(), s, 64, drop);
    EXPECT_LT(no_write.dram.total(), with_write.dram.total());
    EXPECT_LE(no_write.cycles, with_write.cycles);
    EXPECT_EQ(no_write.dram.writeBytes, 0u);
}

TEST(Engines, SramTrafficScalesWithComputeCycles)
{
    const GemmShape s(512, 512, 512);
    for (const auto &cfg :
         {tpuV3Ws(), systolicOs(false), divaDefault()}) {
        const GemmResult r = simulate(cfg, s);
        EXPECT_GT(r.sramReadBytes, 0u);
        EXPECT_GT(r.sramWriteBytes, 0u);
    }
}

// ------------------------------------ closed forms vs the tile loops

/*
 * Reference tile loops: the per-tile cycle models as the engines
 * summed them before the closed forms, one loop iteration per tile.
 */

Cycles
wsTileLoop(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t fill = cfg.weightFillRowsPerCycle;
    const std::int64_t tiles_k = ceilDiv(shape.k, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    Cycles total = 0;
    bool first_tile = true;
    for (std::int64_t tk = 0; tk < tiles_k; ++tk) {
        const std::int64_t kt =
            std::min<std::int64_t>(pe_h, shape.k - tk * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const std::int64_t nt =
                std::min<std::int64_t>(pe_w, shape.n - tn * pe_w);
            const Cycles latch = Cycles(ceilDiv(kt, fill));
            const Cycles stream = Cycles(shape.m + kt + nt - 1);
            if (cfg.wsDoubleBufferWeights) {
                total += first_tile ? latch + stream
                                    : std::max(latch, stream);
            } else {
                total += latch + stream;
            }
            first_tile = false;
        }
    }
    return total;
}

Cycles
osTileLoop(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;
    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    Cycles total = 0;
    for (std::int64_t tm = 0; tm < tiles_m; ++tm) {
        const std::int64_t mt =
            std::min<std::int64_t>(pe_h, shape.m - tm * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const std::int64_t nt =
                std::min<std::int64_t>(pe_w, shape.n - tn * pe_w);
            const Cycles stream = Cycles(shape.k + mt + nt - 1);
            const Cycles drain_cycles = Cycles(ceilDiv(mt, drain));
            total += stream + drain_cycles;
        }
    }
    return total;
}

Cycles
outerProductTileLoop(const AcceleratorConfig &cfg, const GemmShape &shape)
{
    const std::int64_t pe_h = cfg.peRows;
    const std::int64_t pe_w = cfg.peCols;
    const std::int64_t drain = cfg.drainRowsPerCycle;
    const std::int64_t tiles_m = ceilDiv(shape.m, pe_h);
    const std::int64_t tiles_n = ceilDiv(shape.n, pe_w);
    constexpr Cycles kPipelineFill = 2;
    Cycles total = 0;
    for (std::int64_t tm = 0; tm < tiles_m; ++tm) {
        const std::int64_t mt =
            std::min<std::int64_t>(pe_h, shape.m - tm * pe_h);
        for (std::int64_t tn = 0; tn < tiles_n; ++tn) {
            const Cycles accumulate = Cycles(shape.k);
            const Cycles drain_cycles = Cycles(ceilDiv(mt, drain));
            total += std::max(accumulate, drain_cycles) + kPipelineFill;
        }
    }
    return total;
}

TEST(GemmEngines, ClosedFormMatchesTileLoopReference)
{
    // Engines on 7x5, 256x32 and 128x128 arrays at every weight-fill
    // and drain rate in [1, 16] (drain capped at peRows), WS with
    // double-buffered latches off and on.
    struct Array
    {
        int rows, cols;
        std::vector<std::unique_ptr<GemmEngineModel>> ws[2], os, op;
    };
    std::vector<Array> arrays;
    for (const auto &[rows, cols] :
         {std::pair{7, 5}, std::pair{256, 32}, std::pair{128, 128}}) {
        Array a{rows, cols, {}, {}, {}};
        for (int rate = 1; rate <= 16; ++rate) {
            for (int db = 0; db < 2; ++db) {
                AcceleratorConfig ws = tpuV3Ws();
                ws.peRows = rows;
                ws.peCols = cols;
                ws.weightFillRowsPerCycle = rate;
                ws.drainRowsPerCycle = std::min(rate, rows);
                ws.wsDoubleBufferWeights = db == 1;
                a.ws[db].push_back(GemmEngineModel::create(ws));
            }
            for (AcceleratorConfig cfg :
                 {systolicOs(false), divaDefault(false)}) {
                cfg.peRows = rows;
                cfg.peCols = cols;
                cfg.drainRowsPerCycle = std::min(rate, rows);
                (cfg.dataflow == Dataflow::kOuterProduct ? a.op : a.os)
                    .push_back(GemmEngineModel::create(cfg));
            }
        }
        arrays.push_back(std::move(a));
    }

    GemmOptions compute_only;
    compute_only.writeOutputToDram = false;
    compute_only.lhsFromDram = false;
    compute_only.rhsFromDram = false;
    const auto closed = [&](const GemmEngineModel &e, const GemmShape &s) {
        return e.simulate(s, compute_only).computeCycles;
    };

    // Dimensions of 1, PE multiples +-1, anything up to ~20k, and
    // anything up to two tiles; shapes whose reference loops would
    // run past kMaxTiles are redrawn so the loops stay cheap.
    constexpr std::int64_t kMaxTiles = 4096;
    Rng rng(20221001);
    const auto dim = [&](std::int64_t pe) -> std::int64_t {
        switch (rng.uniformInt(4)) {
          case 0:
            return 1;
          case 1:
            return std::max<std::int64_t>(
                1, pe * std::int64_t(1 + rng.uniformInt(160)) - 1 +
                       std::int64_t(rng.uniformInt(3)));
          case 2:
            return std::int64_t(1 + rng.uniformInt(20000));
          default:
            return std::int64_t(1 + rng.uniformInt(std::uint64_t(2 * pe)));
        }
    };
    constexpr int kShapes = 120000;
    int mismatches = 0;
    for (int i = 0; i < kShapes && mismatches < 10; ++i) {
        const Array &a = arrays[rng.uniformInt(arrays.size())];
        GemmShape s;
        do {
            s = GemmShape(dim(a.rows), dim(a.rows), dim(a.cols));
        } while (ceilDiv(s.n, std::int64_t(a.cols)) *
                     ceilDiv(std::max(s.m, s.k), std::int64_t(a.rows)) >
                 kMaxTiles);
        const auto pick = [&](const auto &engines) -> const GemmEngineModel & {
            return *engines[rng.uniformInt(engines.size())];
        };
        const GemmEngineModel &ws = pick(a.ws[rng.uniformInt(2)]);
        const GemmEngineModel &os = pick(a.os);
        const GemmEngineModel &op = pick(a.op);
        const Cycles want[] = {wsTileLoop(ws.config(), s),
                               osTileLoop(os.config(), s),
                               outerProductTileLoop(op.config(), s)};
        const Cycles got[] = {closed(ws, s), closed(os, s), closed(op, s)};
        for (int e = 0; e < 3; ++e) {
            if (got[e] != want[e]) {
                ++mismatches;
                const AcceleratorConfig &c =
                    (e == 0 ? ws : e == 1 ? os : op).config();
                ADD_FAILURE() << c.name << " " << c.peRows << "x"
                              << c.peCols << " fill "
                              << c.weightFillRowsPerCycle << " drain "
                              << c.drainRowsPerCycle << " db "
                              << c.wsDoubleBufferWeights << " shape "
                              << s.str() << ": closed form " << got[e]
                              << ", tile loop " << want[e];
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(GemmResult, Accumulation)
{
    GemmResult a;
    a.cycles = 10;
    a.usefulMacs = 100;
    a.dram.readBytes = 5;
    GemmResult b = a;
    a += b;
    EXPECT_EQ(a.cycles, 20u);
    EXPECT_EQ(a.usefulMacs, 200u);
    EXPECT_EQ(a.dram.readBytes, 10u);
}

} // namespace
} // namespace diva
