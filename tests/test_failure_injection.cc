/**
 * @file
 * Failure-injection tests: every user-facing entry point must reject
 * invalid inputs with a clear error rather than corrupting state or
 * producing silent nonsense. Collected in one suite so the error
 * surface of the public API is auditable.
 */

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "dp/accountant.h"
#include "dp/conv2d.h"
#include "dp/mlp.h"
#include "dp/ops.h"
#include "dp/trainer.h"
#include "gemm/engine.h"
#include "gpu/gpu_model.h"
#include "models/zoo.h"
#include "sim/executor.h"
#include "sim/multichip.h"
#include "train/memory_model.h"
#include "train/planner.h"

namespace diva
{
namespace
{

TEST(FailureInjection, ConfigGeometry)
{
    AcceleratorConfig cfg = divaDefault();
    cfg.peCols = -1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = divaDefault();
    cfg.freqGhz = 0.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = divaDefault();
    cfg.inputBytes = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = divaDefault();
    cfg.weightFillRowsPerCycle = -8;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(FailureInjection, EngineConstructionValidates)
{
    // The engine factory must refuse invalid configs at construction,
    // not at first use.
    AcceleratorConfig cfg = divaDefault();
    cfg.sramBytes = 0;
    EXPECT_THROW(GemmEngineModel::create(cfg), std::runtime_error);
}

TEST(FailureInjection, EngineDataflowMismatch)
{
    // Constructing a concrete engine with the wrong dataflow is an
    // internal contract violation.
    EXPECT_THROW(Executor([] {
                     AcceleratorConfig c = tpuV3Ws();
                     c.hasPpu = true; // WS + PPU forbidden
                     return c;
                 }()),
                 std::runtime_error);
}

TEST(FailureInjection, GemmShapes)
{
    const auto engine = GemmEngineModel::create(divaDefault());
    EXPECT_THROW(engine->simulate(GemmShape(1, 0, 1)),
                 std::logic_error);
    EXPECT_THROW(engine->simulate(GemmShape(-4, 4, 4)),
                 std::logic_error);
}

TEST(FailureInjection, PlannerInputs)
{
    EXPECT_THROW(buildOpStream(resnet50(), TrainingAlgorithm::kSgd, -1),
                 std::logic_error);
    EXPECT_THROW(buildMicrobatchedOpStream(
                     resnet50(), TrainingAlgorithm::kDpSgd, 16, 32),
                 std::logic_error);
}

TEST(FailureInjection, MemoryModelInputs)
{
    EXPECT_THROW(trainingMemory(resnet50(), TrainingAlgorithm::kSgd, 0),
                 std::logic_error);
    EXPECT_THROW(trainingMemoryMicrobatched(
                     resnet50(), TrainingAlgorithm::kDpSgd, 4, 8),
                 std::logic_error);
}

TEST(FailureInjection, MultiChipInputs)
{
    MultiChipConfig pod;
    pod.numChips = 4;
    EXPECT_THROW(simulateDataParallel(divaDefault(true), resnet50(),
                                      TrainingAlgorithm::kDpSgd, 2,
                                      pod),
                 std::runtime_error);
}

TEST(FailureInjection, GpuModelInputs)
{
    GpuConfig bad = GpuConfig::v100Fp32();
    bad.numSms = 0;
    EXPECT_THROW(GpuModel{bad}, std::logic_error);
}

TEST(FailureInjection, AccountantInputs)
{
    EXPECT_THROW(RdpAccountant(-1.0, 0.5), std::logic_error);
    RdpAccountant acc(1.0, 0.1);
    EXPECT_THROW(acc.addSteps(-5), std::logic_error);
    EXPECT_THROW(
        RdpAccountant::calibrateNoiseMultiplier(0.0, 1e-5, 0.1, 100),
        std::logic_error);
}

TEST(FailureInjection, DpTrainerInputs)
{
    Rng rng(1);
    Mlp model({4, 2}, rng);
    DpSgdConfig cfg;
    cfg.noiseMultiplier = -1.0;
    EXPECT_THROW(Trainer<Mlp>(model, TrainingAlgorithm::kDpSgd, cfg),
                 std::logic_error);
}

TEST(FailureInjection, NumericOpsShapeChecks)
{
    Tensor a(2, 3), b(4, 5);
    EXPECT_THROW(matmul(a, b), std::logic_error);
    EXPECT_THROW(matmulTransA(a, b), std::logic_error);
    EXPECT_THROW(matmulTransB(a, b), std::logic_error);
    EXPECT_THROW(reluBackward(a, b), std::logic_error);
}

TEST(FailureInjection, ConvGeometryCollapse)
{
    ConvGeometry g;
    g.inChannels = g.outChannels = 1;
    g.kernelH = g.kernelW = 7;
    g.stride = 1;
    g.padding = 0;
    g.inH = g.inW = 4; // 7x7 kernel cannot fit
    Rng rng(2);
    EXPECT_THROW(Conv2d(g, rng).forward(Tensor(1, 16)),
                 std::logic_error);
}

} // namespace
} // namespace diva
