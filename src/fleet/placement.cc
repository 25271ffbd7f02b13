#include "fleet/placement.h"

#include <cmath>
#include <limits>

#include "serve_core/core.h"

namespace diva
{

namespace
{

using serve_core::kEps;

/** NaN-safe demand/energy: non-finite prices sort last. */
double
finiteOr(double v, double fallback)
{
    return std::isfinite(v) ? v : fallback;
}

} // namespace

const char *
placementName(PlacementKind k)
{
    switch (k) {
      case PlacementKind::kFirstFit: return "first-fit";
      case PlacementKind::kLoadAware: return "load";
      case PlacementKind::kEnergyAware: return "energy";
    }
    return "?";
}

std::optional<PlacementKind>
placementFromName(const std::string &name)
{
    if (name == "first-fit" || name == "firstfit" || name == "ff")
        return PlacementKind::kFirstFit;
    if (name == "load" || name == "load-aware" || name == "least")
        return PlacementKind::kLoadAware;
    if (name == "energy" || name == "energy-aware")
        return PlacementKind::kEnergyAware;
    return std::nullopt;
}

std::vector<PlacementKind>
allPlacements()
{
    return {PlacementKind::kFirstFit, PlacementKind::kLoadAware,
            PlacementKind::kEnergyAware};
}

std::size_t
choosePod(PlacementKind kind, const std::vector<PodLoadView> &pods,
          const std::vector<std::uint32_t> &podType,
          const std::vector<double> &typeDemand,
          const std::vector<double> &typeEnergy, double cap)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::size_t best = kNoPod;
    double best_primary = kInf;
    double best_secondary = kInf;
    for (std::size_t p = 0; p < pods.size(); ++p) {
        const std::uint32_t type = podType[p];
        const double demand = finiteOr(typeDemand[type], kInf);
        if (pods[p].demand + demand > cap + kEps)
            continue; // infeasible: the pod is full for this tenant
        if (kind == PlacementKind::kFirstFit)
            return p;
        double primary = 0.0;
        double secondary = 0.0;
        if (kind == PlacementKind::kLoadAware) {
            primary = pods[p].demand;
            secondary = double(pods[p].sessions);
        } else { // kEnergyAware
            primary = finiteOr(typeEnergy[type], kInf);
            secondary = pods[p].demand;
        }
        if (best == kNoPod || primary < best_primary - kEps ||
            (primary <= best_primary + kEps &&
             secondary < best_secondary - kEps)) {
            best = p;
            // Keep the running minimum: a within-kEps tie-break winner
            // must not raise the bar later pods get compared against.
            best_primary = std::min(best_primary, primary);
            best_secondary = secondary;
        }
    }
    return best;
}

} // namespace diva
