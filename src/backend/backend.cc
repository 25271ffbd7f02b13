#include "backend/backend.h"

#include "energy/energy_model.h"
#include "gpu/gpu_model.h"
#include "sim/executor.h"
#include "sim/multichip.h"

namespace diva
{

BackendCaps
capabilities(SweepBackend backend)
{
    if (backend == SweepBackend::kGpu)
        return {}; // seconds only
    return {true, true, true, true, true};
}

void
evaluate(const Scenario &scenario, PlanCache &plans, ScenarioResult &out)
{
    const std::shared_ptr<const Network> net =
        plans.network(scenario.model, scenario.modelScale);
    out.resolvedBatch = resolveBatch(scenario, *net);
    int chips = 1; // scales the engine power rating
    switch (scenario.backend) {
      case SweepBackend::kSingleChip: {
        // One accelerator chip via the Executor, optionally
        // micro-batched with gradient accumulation.
        const std::shared_ptr<const OpStream> stream = plans.stream(
            *net, scenario.model, scenario.modelScale, scenario.algorithm,
            out.resolvedBatch, scenario.microbatch);
        const SimResult r = Executor(scenario.config).run(*stream);
        out.cycles = r.totalCycles();
        out.computeCycles = out.cycles;
        out.seconds = r.seconds(scenario.config);
        out.utilization = r.overallUtilization(scenario.config);
        out.energyJ = EnergyModel::energy(r, scenario.config).total();
        out.dramBytes = r.totalDram().total();
        out.postProcDramBytes = r.postProcessingDram.total();
        break;
      }
      case SweepBackend::kMultiChip: {
        // The mini-batch sharded over a pod of identical chips, the
        // per-batch weight gradients ring-all-reduced; pod-wide
        // metrics.
        const ScalingResult r =
            simulateDataParallel(scenario.config, *net, scenario.algorithm,
                                 out.resolvedBatch, scenario.pod);
        out.cycles = r.totalCycles;
        out.computeCycles = r.computeCycles;
        out.allReduceCycles = r.allReduceCycles;
        out.seconds = scenario.config.cyclesToSeconds(r.totalCycles);
        out.utilization = r.utilization;
        out.energyJ = r.energyJ;
        out.dramBytes = r.dramBytes;
        out.postProcDramBytes = r.postProcDramBytes;
        chips = scenario.pod.numChips;
        break;
      }
      case SweepBackend::kGpu: {
        // Always the monolithic stream: the roofline GPU executes the
        // logical mini-batch directly (micro-batching is an
        // accelerator memory-wall mitigation, not part of the Figure
        // 17 protocol).
        const std::shared_ptr<const OpStream> stream = plans.stream(
            *net, scenario.model, scenario.modelScale, scenario.algorithm,
            out.resolvedBatch, 0);
        out.seconds = GpuModel(scenario.gpu).bottleneckSeconds(*stream);
        return; // no engine rating: the GPU models seconds only
      }
    }
    out.enginePowerW = EnergyModel::enginePowerW(scenario.config) * chips;
    out.engineAreaMm2 = EnergyModel::engineAreaMm2(scenario.config);
}

} // namespace diva
