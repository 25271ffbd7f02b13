/**
 * @file
 * The simulation backends. evaluate() runs one sweep Scenario on the
 * execution substrate its SweepBackend names -- a single accelerator
 * chip, a data-parallel pod, or the Figure-17 roofline GPU -- filling
 * a ScenarioResult. The three substrates are fixed by the method, so
 * one switch over the enum dispatches them.
 *
 * Each substrate declares *capability flags* for the metrics it
 * actually models; the emitters consult them so a substrate that has
 * no cycle or energy notion (the GPU roofline) produces empty/NaN
 * cells instead of fake zeros.
 */

#ifndef DIVA_BACKEND_BACKEND_H
#define DIVA_BACKEND_BACKEND_H

#include "backend/plan_cache.h"
#include "sweep/scenario.h"

namespace diva
{

/**
 * Which ScenarioResult metrics a backend actually models. Unset flags
 * mean the corresponding fields are meaningless defaults (not measured
 * zeros) and are emitted as empty/NaN/null cells. Every backend models
 * wall-clock `seconds`.
 */
struct BackendCaps
{
    /** cycles / computeCycles / allReduceCycles. */
    bool cycles = false;

    /** Effective FLOPS utilization. */
    bool utilization = false;

    /** Iteration energy in joules. */
    bool energy = false;

    /** dramBytes / postProcDramBytes off-chip traffic. */
    bool dramTraffic = false;

    /** enginePowerW / engineAreaMm2 design-point ratings. */
    bool engineRating = false;
};

/**
 * The metrics `backend` models: every one on the chip and the pod,
 * wall-clock seconds only on the GPU roofline.
 */
BackendCaps capabilities(SweepBackend backend);

/**
 * Evaluate `scenario` on scenario.backend, filling the metric fields
 * of `out` (out.scenario and out.cacheHit belong to the caller).
 * Workload plans come from `plans` so repeated workloads lower once.
 * Simulation errors are thrown (the runner converts them into
 * out.error); on throw, `out` may be partially filled and must be
 * discarded.
 *
 * Known gap: a pod prices each chip's shard as one monolithic pass
 * and never reads Scenario::microbatch, so a pod row at micro-batch m
 * equals its micro-batch-0 twin byte for byte (pinned by
 * PodBackend.IgnoresMicrobatch; honoring it changes pod outputs).
 */
void evaluate(const Scenario &scenario, PlanCache &plans,
              ScenarioResult &out);

} // namespace diva

#endif // DIVA_BACKEND_BACKEND_H
