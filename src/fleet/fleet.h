/**
 * @file
 * Datacenter-scale fleet specification: N pods, each an independent
 * time-shared serve instance binding one accelerator design point
 * (heterogeneous fleets mix dataflows, PPU settings, chip counts and
 * interconnects per pod), plus the cluster-level knobs -- placement
 * policy, migration/rebalance thresholds, the fleet energy budget and
 * the partial-SRAM working-set fraction -- that the fleet engine
 * (fleet/engine.h) layers on top of the per-pod schedulers.
 *
 * Pods are spelled on the CLI as templates ("df=OS,chips=4,count=16")
 * that expand into `count` identical PodSpecs; a heterogeneous fleet
 * is several templates concatenated. Parsing lives here, next to the
 * validation, so the tests exercise exactly what diva_fleet runs.
 */

#ifndef DIVA_FLEET_FLEET_H
#define DIVA_FLEET_FLEET_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/accelerator_config.h"
#include "fleet/placement.h"
#include "sim/multichip.h"
#include "sweep/scenario.h"
#include "tenant/scheduler.h"

namespace diva
{

/** One pod of the fleet: a design point plus its share of chips. */
struct PodSpec
{
    /** Fleet-unique pod id used in reports, e.g. "p12". */
    std::string name;

    /** The pod's accelerator design point. */
    AcceleratorConfig config;

    /** Chips in the pod; > 1 prices steps on the "pod" backend. */
    int chips = 1;

    /** Pod link parameters (used when chips > 1, and by migration). */
    MultiChipConfig pod;

    /** The backend this pod prices isolated costs on. */
    SweepBackend backend() const
    {
        return chips > 1 ? SweepBackend::kMultiChip
                         : SweepBackend::kSingleChip;
    }

    /** Why this pod is malformed, or "". */
    std::string validationError() const;
};

/** Tenant-migration (rebalance) knobs. */
struct RebalanceOptions
{
    /** Master switch; off = tenants stay where they were placed. */
    bool enabled = false;

    /**
     * Utilization gap (busy-fraction of the control interval) between
     * the most- and least-loaded pod that triggers migration.
     */
    double skewThreshold = 0.25;

    /** Migration cap per control round (thrash guard). */
    int maxPerRound = 64;
};

/** Fleet-level energy budget the schedulers must respect. */
struct FleetEnergyBudget
{
    /** Sustained fleet power cap in watts; 0 = uncapped. */
    double powerCapW = 0.0;

    /**
     * Total joule budget over the whole run; 0 = unbudgeted. Once the
     * remaining budget cannot sustain the active load for a control
     * interval, low-priority tenants are preempted first; an exhausted
     * budget preempts every remaining tenant permanently.
     */
    double totalJ = 0.0;

    bool enabled() const { return powerCapW > 0.0 || totalJ > 0.0; }
};

/** Everything one fleet simulation needs besides the arrival trace. */
struct FleetSpec
{
    /** Fleet label used in reports, e.g. "fleet-64". */
    std::string name;

    std::vector<PodSpec> pods;

    /** Per-pod time-sharing policy (see src/serve_core/core.h). */
    SchedPolicy policy = SchedPolicy::kRoundRobin;

    /** Cluster-level tenant-to-pod placement policy. */
    PlacementKind placement = PlacementKind::kFirstFit;

    /**
     * Fraction of one pod the admitted QoS demand placed on it may
     * claim (> 0); tenants no pod can feasibly hold are rejected.
     */
    double podDemandCap = 1.0;

    RebalanceOptions rebalance;

    FleetEnergyBudget budget;

    /**
     * Control-loop interval in simulated seconds: rebalance and
     * energy-budget decisions fire at these boundaries. 0 = auto (an
     * eighth of the trace span when any control is enabled, else one
     * uninterrupted epoch).
     */
    double controlIntervalSec = 0.0;

    /**
     * Share of the SRAM a context switch or migration actually moves
     * (partial-SRAM working-set switches); 1 = whole SRAM.
     */
    double workingSetFraction = 1.0;

    /** Training iterations per scheduling quantum (>= 1). */
    std::uint64_t quantumIters = 1;

    /** Wall-clock budget in simulated seconds; 0 = run to completion. */
    double wallLimitSec = 0.0;

    /**
     * Simulation backends pods may price isolated costs on; empty =
     * any. The backends the fleet's pods actually need
     * (PodSpec::backend()) must be in the list.
     */
    std::vector<SweepBackend> backends;

    /** First problem found (empty fleet, bad pod, bad knob), or "". */
    std::string validationError() const;
};

/**
 * Parse one CLI pod template of the form key=value[,key=value...]
 * with keys df (WS|OS|DiVa), ppu (on|off), chips, count, ici-gbs and
 * link-lat, and expand it into `count` identical pods (names are
 * assigned later by buildFleet). Unknown keys or malformed values
 * return nullopt and set *error.
 */
std::optional<std::vector<PodSpec>>
parsePodTemplate(const std::string &text, std::string *error);

/**
 * Assemble a fleet from expanded pod templates: concatenates the
 * groups and assigns fleet-unique names p0..pN-1 in order. The fleet
 * name reflects the pod count ("fleet-<N>").
 */
FleetSpec buildFleet(const std::vector<std::vector<PodSpec>> &groups);

/** `n` identical single-chip DiVa pods (the default fleet). */
std::vector<PodSpec> defaultPodGroup(int n);

} // namespace diva

#endif // DIVA_FLEET_FLEET_H
