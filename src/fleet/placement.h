/**
 * @file
 * Cluster-level placement policies: when a tenant session arrives, the
 * fleet engine asks the placement policy which pod should serve it.
 * All policies see the same projected view of every pod -- the QoS
 * demand already placed there and its live session count -- plus the
 * arriving tenant's demand and joules-per-step priced on each pod
 * (heterogeneous pods price the same tenant differently, so prices
 * are given per pod type), and only pods whose demand stays within
 * the per-pod cap are feasible.
 *
 * Determinism contract: choosePod() is a pure function of its inputs
 * with index-order tie-breaking, so a placement sequence is
 * byte-reproducible whatever the host thread count.
 */

#ifndef DIVA_FLEET_PLACEMENT_H
#define DIVA_FLEET_PLACEMENT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace diva
{

/** The cluster-level placement policies offered by the fleet. */
enum class PlacementKind
{
    /** First pod (by index) with room: classic bin packing. */
    kFirstFit,
    /** Least-utilized pod with room (demand, then session count). */
    kLoadAware,
    /** Pod with room serving this tenant at the fewest joules/step. */
    kEnergyAware,
};

/** CLI/CSV name of a policy ("first-fit", "load", "energy"). */
const char *placementName(PlacementKind k);

/** Parse a placement name (accepts aliases); nullopt if unknown. */
std::optional<PlacementKind> placementFromName(const std::string &name);

/** Every placement policy, in declaration order. */
std::vector<PlacementKind> allPlacements();

/** Projected load of one pod at placement time. */
struct PodLoadView
{
    /** QoS utilization demand already placed and still live. */
    double demand = 0.0;

    /** Live sessions assigned (best-effort tenants count here). */
    std::size_t sessions = 0;
};

/** choosePod()'s "no feasible pod" verdict: the tenant is rejected. */
constexpr std::size_t kNoPod = std::size_t(-1);

/**
 * Pick the pod for one arriving tenant. Pod p has design-point type
 * `podType[p]`; `typeDemand[t]` is the tenant's QoS utilization
 * demand priced on type t (0 = best effort) and `typeEnergy[t]` its
 * isolated joules per step there. A pod is feasible while its
 * projected demand plus the tenant's stays within `cap`. Returns
 * kNoPod when no pod is feasible.
 */
std::size_t choosePod(PlacementKind kind,
                      const std::vector<PodLoadView> &pods,
                      const std::vector<std::uint32_t> &podType,
                      const std::vector<double> &typeDemand,
                      const std::vector<double> &typeEnergy,
                      double cap);

} // namespace diva

#endif // DIVA_FLEET_PLACEMENT_H
