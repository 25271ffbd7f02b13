/**
 * @file
 * Unit tests for the accelerator configuration presets and validation.
 */

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"

namespace diva
{
namespace
{

TEST(AcceleratorConfig, TpuV3PresetMatchesTableII)
{
    const AcceleratorConfig cfg = tpuV3Ws();
    EXPECT_EQ(cfg.dataflow, Dataflow::kWeightStationary);
    EXPECT_EQ(cfg.peRows, 128);
    EXPECT_EQ(cfg.peCols, 128);
    EXPECT_DOUBLE_EQ(cfg.freqGhz, 0.94);
    EXPECT_EQ(cfg.sramBytes, 16_MiB);
    EXPECT_DOUBLE_EQ(cfg.dramBandwidthGBs, 450.0);
    EXPECT_EQ(cfg.dramLatencyCycles, 100u);
    EXPECT_FALSE(cfg.hasPpu);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(AcceleratorConfig, DivaPresetHasPpuAndOuterProduct)
{
    const AcceleratorConfig cfg = divaDefault();
    EXPECT_EQ(cfg.dataflow, Dataflow::kOuterProduct);
    EXPECT_TRUE(cfg.hasPpu);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(AcceleratorConfig, DivaWithoutPpu)
{
    const AcceleratorConfig cfg = divaDefault(false);
    EXPECT_FALSE(cfg.hasPpu);
    EXPECT_EQ(cfg.name, "DiVa-noPPU");
}

TEST(AcceleratorConfig, OsPresetRespectsPpuFlag)
{
    EXPECT_TRUE(systolicOs(true).hasPpu);
    EXPECT_FALSE(systolicOs(false).hasPpu);
    EXPECT_EQ(systolicOs(true).dataflow, Dataflow::kOutputStationary);
}

TEST(AcceleratorConfig, PeakMacsAndTflops)
{
    const AcceleratorConfig cfg = divaDefault();
    EXPECT_EQ(cfg.macsPerCycle(), 128u * 128u);
    // Table III: 16384 MACs at 940 MHz = 2*16384*0.94e9 = 30.8 TFLOPS
    // (the paper quotes 29.5 with slightly different rounding).
    EXPECT_NEAR(cfg.peakTflops(), 30.8, 0.1);
}

TEST(AcceleratorConfig, DramBytesPerCycle)
{
    const AcceleratorConfig cfg = tpuV3Ws();
    // 450 GB/s at 0.94 GHz ~ 478.7 B/cycle.
    EXPECT_NEAR(cfg.dramBytesPerCycle(), 478.7, 0.1);
}

TEST(AcceleratorConfig, CyclesToSeconds)
{
    const AcceleratorConfig cfg = tpuV3Ws();
    EXPECT_NEAR(cfg.cyclesToSeconds(940'000'000), 1.0, 1e-9);
}

TEST(AcceleratorConfig, ValidateRejectsWsWithPpu)
{
    AcceleratorConfig cfg = tpuV3Ws();
    cfg.hasPpu = true;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(AcceleratorConfig, ValidateRejectsBadGeometry)
{
    AcceleratorConfig cfg = divaDefault();
    cfg.peRows = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(AcceleratorConfig, ValidateRejectsBadDrainRate)
{
    AcceleratorConfig cfg = divaDefault();
    cfg.drainRowsPerCycle = cfg.peRows + 1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.drainRowsPerCycle = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(AcceleratorConfig, ValidateRejectsZeroSram)
{
    AcceleratorConfig cfg = divaDefault();
    cfg.sramBytes = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(AcceleratorConfig, ValidateRejectsNegativeBandwidth)
{
    AcceleratorConfig cfg = divaDefault();
    cfg.dramBandwidthGBs = -1.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(DataflowName, AllNamed)
{
    EXPECT_STREQ(dataflowName(Dataflow::kWeightStationary), "WS");
    EXPECT_STREQ(dataflowName(Dataflow::kOutputStationary), "OS");
    EXPECT_STREQ(dataflowName(Dataflow::kOuterProduct), "DiVa");
}

} // namespace
} // namespace diva
