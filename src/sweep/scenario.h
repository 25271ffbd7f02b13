/**
 * @file
 * A Scenario is one point of a design-space sweep: everything needed
 * to simulate one training iteration -- the accelerator design point,
 * the workload (network-zoo model, input scale, batch/micro-batch,
 * training algorithm) and the execution backend (single chip,
 * data-parallel pod, or roofline GPU model).
 *
 * Scenarios have an exact text key that identifies the underlying
 * simulation inputs: the spec expander's deduplication, the sweep
 * runner's result cache, its plan-sharing job groups (the key's
 * workload part) and the disk store are all keyed on it, and the
 * fleet dedups pod types on its design part (appendDesignKey).
 */

#ifndef DIVA_SWEEP_SCENARIO_H
#define DIVA_SWEEP_SCENARIO_H

#include <cstddef>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "common/types.h"
#include "gpu/gpu_model.h"
#include "models/network.h"
#include "sim/multichip.h"
#include "train/algorithm.h"

namespace diva
{

/** Execution backend that evaluates a scenario. */
enum class SweepBackend
{
    /** One accelerator chip via Executor. */
    kSingleChip,
    /** Data-parallel pod via simulateDataParallel. */
    kMultiChip,
    /** Roofline GPU model (Figure 17 protocol). */
    kGpu,
};

/** Short name of a backend ("chip", "pod", "gpu"). */
const char *backendName(SweepBackend b);

/** Sentinel batch meaning "largest vanilla DP-SGD batch that fits". */
constexpr int kAutoBatch = 0;

/** One point of a design-space sweep. */
struct Scenario
{
    /** Accelerator design point (ignored by the GPU backend). */
    AcceleratorConfig config;

    /** Network-zoo model name, e.g. "ResNet-50" (see knownModels()). */
    std::string model;

    /**
     * Input scale: image side for CNNs, sequence length for
     * Transformers/RNNs. 0 selects the paper's baseline (32).
     */
    int modelScale = 0;

    /**
     * Mini-batch size. kAutoBatch applies the paper's Figure-5/13
     * protocol: the largest mini-batch vanilla DP-SGD fits under
     * `memoryBudget`.
     */
    int batch = kAutoBatch;

    /** Micro-batch size for gradient accumulation; 0 = monolithic. */
    int microbatch = 0;

    TrainingAlgorithm algorithm = TrainingAlgorithm::kDpSgdR;

    SweepBackend backend = SweepBackend::kSingleChip;

    /**
     * BackendRegistry name of the backend that evaluates this
     * scenario; empty = the built-in for `backend`. A registered
     * non-built-in backend (whose kind() must equal `backend`, which
     * decides the scenario fields and sweep axes that apply) is
     * routed to by name alone -- see effectiveBackend().
     */
    std::string backendId;

    /** Pod shape; used only by the kMultiChip backend. */
    MultiChipConfig pod;

    /** GPU design point; used only by the kGpu backend. */
    GpuConfig gpu;

    /** Device-memory budget for the kAutoBatch protocol. */
    Bytes memoryBudget = 16_GiB;

    /** Human-readable one-line description. */
    std::string label() const;

    /**
     * The registry name this scenario is evaluated (and keyed,
     * reported) under: backendId when set, else backendName(backend).
     */
    std::string effectiveBackend() const
    {
        return backendId.empty() ? backendName(backend) : backendId;
    }

    /**
     * Exact key of the simulation inputs this scenario denotes, one
     * CSV row of cells: the workload part (effective backend, model,
     * scale, algorithm, batch, micro-batch, and the memory budget when
     * the batch is auto), then the design part from appendDesignKey().
     * Doubles are written in their round-trip form, so two scenarios
     * share a key only when every input they are simulated from is
     * equal. Fields irrelevant to the selected backend (the
     * accelerator config under kGpu, the pod shape under kSingleChip)
     * are left out, so sweeps over unrelated axes collapse into one
     * simulation. `workloadSize`, when given, receives the length of
     * the workload part, a prefix of the key.
     */
    std::string key(std::size_t *workloadSize = nullptr) const;
};

/**
 * Append the design part of a simulation key to `out`, as ",cell"
 * cells: every AcceleratorConfig field, then for kMultiChip the pod's
 * chip count, ICI bandwidth and link latency; for kGpu every GpuConfig
 * field instead. Doubles go through appendDouble and round-trip.
 */
void appendDesignKey(std::string &out, SweepBackend backend,
                     const AcceleratorConfig &config,
                     const MultiChipConfig &pod, const GpuConfig &gpu);

/** Results and metadata of one simulated scenario. */
struct ScenarioResult
{
    Scenario scenario;

    /** Concrete mini-batch after kAutoBatch resolution. */
    int resolvedBatch = 0;

    Cycles cycles = 0;
    /**
     * Compute / communication split of `cycles`. Single-chip scenarios
     * are all compute; pod scenarios split into the slowest chip's
     * local iteration and the ring all-reduce. Zero for the GPU
     * backend (the roofline model has no cycle notion).
     */
    Cycles computeCycles = 0;
    Cycles allReduceCycles = 0;
    double seconds = 0.0;
    /** Effective FLOPS utilization (chip and pod backends). */
    double utilization = 0.0;
    /** Iteration energy in joules; pod scenarios sum over all chips. */
    double energyJ = 0.0;
    Bytes dramBytes = 0;
    /** Gradient post-processing off-chip traffic (the PPU's target). */
    Bytes postProcDramBytes = 0;
    double enginePowerW = 0.0;
    double engineAreaMm2 = 0.0;

    /** Whether this result was served from the sweep cache. */
    bool cacheHit = false;

    /** Non-empty when the simulation failed (e.g. invalid batch). */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Build a zoo model by name and input scale (0 = paper default).
 * Calls DIVA_FATAL for unknown names.
 */
Network buildModel(const std::string &name, int scale = 0);

/** Names accepted by buildModel, in the paper's figure ordering. */
std::vector<std::string> knownModels();

/**
 * Resolve a scenario's mini-batch: explicit batches pass through,
 * kAutoBatch applies the Figure-5/13 protocol against the scenario's
 * memory budget (never below 1).
 */
int resolveBatch(const Scenario &s, const Network &net);

} // namespace diva

#endif // DIVA_SWEEP_SCENARIO_H
