/**
 * @file
 * Data-parallel pod simulation backend: the scenario's mini-batch is
 * sharded over a pod of identical chips and the per-batch weight
 * gradients are ring-all-reduced (simulateDataParallel). Models every
 * metric, pod-wide.
 *
 * Known gap: each chip's shard is priced as one monolithic pass and
 * Scenario::microbatch is never read, so a pod row at micro-batch m
 * equals its micro-batch-0 twin byte for byte (pinned by
 * PodBackend.IgnoresMicrobatch; honoring it changes pod outputs).
 */

#ifndef DIVA_BACKEND_POD_BACKEND_H
#define DIVA_BACKEND_POD_BACKEND_H

#include "backend/backend.h"

namespace diva
{

/** Data-parallel pod via simulateDataParallel. */
class PodBackend : public SimBackend
{
  public:
    const char *name() const override { return "pod"; }
    SweepBackend kind() const override
    {
        return SweepBackend::kMultiChip;
    }
    BackendCaps capabilities() const override
    {
        return BackendCaps::all();
    }
    void evaluate(const Scenario &scenario, PlanCache &plans,
                  ScenarioResult &out) const override;
};

} // namespace diva

#endif // DIVA_BACKEND_POD_BACKEND_H
