#include "sim/multichip.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "energy/energy_model.h"
#include "sim/executor.h"
#include "train/planner.h"

namespace diva
{

ScalingResult
simulateDataParallel(const AcceleratorConfig &chip, const Network &net,
                     TrainingAlgorithm algo, int global_batch,
                     const MultiChipConfig &pod)
{
    DIVA_ASSERT(pod.numChips >= 1);
    if (global_batch < pod.numChips)
        DIVA_FATAL("global batch ", global_batch,
                   " cannot shard over ", pod.numChips, " chips");

    ScalingResult result;
    result.numChips = pod.numChips;
    result.perChipBatch = ceilDiv(global_batch, pod.numChips);

    // The slowest chip carries the ceil-sized shard.
    const SimResult chip_result = Executor(chip).run(
        buildOpStream(net, algo, result.perChipBatch));
    result.computeCycles = chip_result.totalCycles();

    const double grad_bytes = double(net.paramCount()) * 4.0;
    if (pod.numChips > 1) {
        // Ring all-reduce of the FP32 per-batch weight gradients:
        // each chip sends 2*(N-1)/N of |G(W)| over its link.
        const double wire_bytes = 2.0 *
                                  double(pod.numChips - 1) /
                                  double(pod.numChips) * grad_bytes;
        const double bytes_per_cycle =
            pod.interconnectGBs * 1e9 / (chip.freqGhz * 1e9);
        // A link slow enough to overrun 64-bit cycle counts fails the
        // scenario rather than wrapping to a near-free all-reduce.
        const double wire_cycles = std::ceil(wire_bytes / bytes_per_cycle);
        Cycles hops = 0;
        if (!(wire_cycles < 0x1p64) ||
            __builtin_mul_overflow(Cycles(2 * (pod.numChips - 1)),
                                   pod.linkLatencyCycles, &hops) ||
            __builtin_add_overflow(Cycles(wire_cycles), hops,
                                   &result.allReduceCycles))
            DIVA_FATAL("all-reduce at ", pod.interconnectGBs,
                       " GB/s overflows 64-bit cycles");
    }
    if (__builtin_add_overflow(result.computeCycles, result.allReduceCycles,
                               &result.totalCycles))
        DIVA_FATAL("compute + all-reduce overflows 64-bit cycles");

    // Pod-level utilization, traffic, and energy. Every chip runs the
    // same shard simulation, so pod totals are numChips times the
    // per-chip result plus the all-reduce contributions: each chip
    // streams its gradients out to the link and the reduced gradients
    // back (2*|G| of DRAM traffic), and its engine keeps drawing power
    // while stalled on the ring.
    const double chips = double(pod.numChips);
    result.utilization =
        result.totalCycles == 0
            ? 0.0
            : chip_result.overallUtilization(chip) *
                  double(result.computeCycles) /
                  double(result.totalCycles);
    Bytes per_chip_dram = chip_result.totalDram().total();
    double pod_energy = chips * EnergyModel::energy(chip_result, chip).total();
    if (pod.numChips > 1) {
        const Bytes reduce_dram = Bytes(2.0 * grad_bytes);
        per_chip_dram += reduce_dram;
        pod_energy += chips * EnergyModel::kDramJoulesPerByte *
                      double(reduce_dram);
        pod_energy += chips * EnergyModel::enginePowerW(chip) *
                      chip.cyclesToSeconds(result.allReduceCycles);
    }
    result.dramBytes = Bytes(chips) * per_chip_dram;
    result.energyJ = pod_energy;
    result.postProcDramBytes =
        Bytes(chips) * chip_result.postProcessingDram.total();
    return result;
}

} // namespace diva
