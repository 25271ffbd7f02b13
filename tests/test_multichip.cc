/**
 * @file
 * Tests for the data-parallel multi-chip scaling model.
 */

#include <gtest/gtest.h>

#include "arch/accelerator_config.h"
#include "models/zoo.h"
#include "sim/multichip.h"

namespace diva
{
namespace
{

TEST(MultiChip, SingleChipHasNoCommunication)
{
    MultiChipConfig pod;
    pod.numChips = 1;
    const ScalingResult r = simulateDataParallel(
        divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR, 64,
        pod);
    EXPECT_EQ(r.allReduceCycles, 0u);
    EXPECT_EQ(r.totalCycles, r.computeCycles);
    EXPECT_EQ(r.perChipBatch, 64);
}

TEST(MultiChip, ShardSizesCeil)
{
    MultiChipConfig pod;
    pod.numChips = 8;
    const ScalingResult r = simulateDataParallel(
        divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR, 100,
        pod);
    EXPECT_EQ(r.perChipBatch, 13);
}

TEST(MultiChip, MoreChipsReduceTime)
{
    Cycles prev = Cycles(-1);
    for (int n : {1, 2, 4, 8, 16}) {
        MultiChipConfig pod;
        pod.numChips = n;
        const ScalingResult r = simulateDataParallel(
            divaDefault(true), resnet152(), TrainingAlgorithm::kDpSgdR,
            256, pod);
        EXPECT_LT(r.totalCycles, prev) << n;
        prev = r.totalCycles;
    }
}

TEST(MultiChip, EfficiencyDegradesWithScale)
{
    // Strong-scaling efficiency against the 1-chip pod at the same
    // global batch, as pod_scaling and bench_ablation report it.
    Cycles single = 0;
    double prev = 1.1;
    for (int n : {1, 4, 16, 64}) {
        MultiChipConfig pod;
        pod.numChips = n;
        const ScalingResult r = simulateDataParallel(
            divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR,
            512, pod);
        if (n == 1)
            single = r.totalCycles;
        const double efficiency =
            double(single) / (double(n) * double(r.totalCycles));
        EXPECT_LE(efficiency, prev + 1e-9) << n;
        EXPECT_GT(efficiency, 0.0);
        prev = efficiency;
    }
    EXPECT_LT(prev, 1.0);
}

TEST(MultiChip, AllReduceScalesWithModelSize)
{
    MultiChipConfig pod;
    pod.numChips = 8;
    const ScalingResult small = simulateDataParallel(
        divaDefault(true), squeezenet(), TrainingAlgorithm::kDpSgdR,
        256, pod);
    const ScalingResult large = simulateDataParallel(
        divaDefault(true), bertLarge(), TrainingAlgorithm::kDpSgdR, 256,
        pod);
    EXPECT_GT(large.allReduceCycles, 10 * small.allReduceCycles);
}

TEST(MultiChip, FasterInterconnectHelps)
{
    MultiChipConfig slow;
    slow.numChips = 16;
    slow.interconnectGBs = 10.0;
    MultiChipConfig fast = slow;
    fast.interconnectGBs = 200.0;
    const ScalingResult a = simulateDataParallel(
        divaDefault(true), bertBase(), TrainingAlgorithm::kDpSgdR, 256,
        slow);
    const ScalingResult b = simulateDataParallel(
        divaDefault(true), bertBase(), TrainingAlgorithm::kDpSgdR, 256,
        fast);
    EXPECT_GT(a.allReduceCycles, b.allReduceCycles);
    EXPECT_GT(a.totalCycles, b.totalCycles);
}

TEST(MultiChip, DivaKeepsItsAdvantageAtPodScale)
{
    MultiChipConfig pod;
    pod.numChips = 8;
    const ScalingResult ws = simulateDataParallel(
        tpuV3Ws(), resnet152(), TrainingAlgorithm::kDpSgdR, 512, pod);
    const ScalingResult dv = simulateDataParallel(
        divaDefault(true), resnet152(), TrainingAlgorithm::kDpSgdR, 512,
        pod);
    EXPECT_GT(double(ws.totalCycles) / double(dv.totalCycles), 2.0);
}

TEST(MultiChip, PodEnergyTrafficAndUtilizationAreAccounted)
{
    MultiChipConfig pod;
    pod.numChips = 8;
    const ScalingResult r = simulateDataParallel(
        divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR, 256,
        pod);
    EXPECT_GT(r.energyJ, 0.0);
    EXPECT_GT(r.dramBytes, 0u);
    EXPECT_GT(r.postProcDramBytes, 0u);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);

    // The pod at least sums its chips: one chip at the shard batch.
    MultiChipConfig single;
    single.numChips = 1;
    const ScalingResult shard = simulateDataParallel(
        divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR,
        r.perChipBatch, single);
    EXPECT_GE(r.energyJ, 8.0 * shard.energyJ);
    EXPECT_GE(r.dramBytes, 8u * shard.dramBytes);
}

TEST(MultiChip, AllReduceStallLowersUtilization)
{
    MultiChipConfig slow;
    slow.numChips = 16;
    slow.interconnectGBs = 5.0;
    const ScalingResult stalled = simulateDataParallel(
        divaDefault(true), bertBase(), TrainingAlgorithm::kDpSgdR, 256,
        slow);
    MultiChipConfig single;
    single.numChips = 1;
    const ScalingResult local = simulateDataParallel(
        divaDefault(true), bertBase(), TrainingAlgorithm::kDpSgdR,
        stalled.perChipBatch, single);
    EXPECT_LT(stalled.utilization, local.utilization);
}

TEST(MultiChip, RejectsUnshardableBatch)
{
    MultiChipConfig pod;
    pod.numChips = 64;
    EXPECT_THROW(simulateDataParallel(divaDefault(true), resnet50(),
                                      TrainingAlgorithm::kDpSgdR, 32,
                                      pod),
                 std::runtime_error);
}

TEST(MultiChip, RejectsAllReduceThatOverflowsCycles)
{
    // ~1.5e20 cycles at 1e-12 GB/s, and an infinite count at 1e-300:
    // neither fits in 64 bits, so the scenario must fail instead of
    // pricing the pod as if communication were (nearly) free.
    for (double gbs : {1e-12, 1e-300}) {
        MultiChipConfig pod;
        pod.numChips = 4;
        pod.interconnectGBs = gbs;
        EXPECT_THROW(simulateDataParallel(divaDefault(true), resnet50(),
                                          TrainingAlgorithm::kDpSgdR, 64,
                                          pod),
                     std::runtime_error)
            << gbs << " GB/s";
    }
    // A slow link whose all-reduce still fits keeps pricing.
    MultiChipConfig slow;
    slow.numChips = 4;
    slow.interconnectGBs = 1e-6;
    const ScalingResult r = simulateDataParallel(
        divaDefault(true), resnet50(), TrainingAlgorithm::kDpSgdR, 64,
        slow);
    EXPECT_GT(r.allReduceCycles, r.computeCycles);
    EXPECT_EQ(r.totalCycles, r.computeCycles + r.allReduceCycles);
}

} // namespace
} // namespace diva
