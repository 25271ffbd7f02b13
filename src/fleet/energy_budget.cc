#include "fleet/energy_budget.h"

#include <algorithm>
#include <cmath>

#include "serve_core/core.h"

namespace diva
{

using serve_core::kEps;

double
effectivePowerCapW(double powerCapW, double totalJ, double spentJ,
                   double intervalSec)
{
    double cap = powerCapW > 0.0 ? powerCapW : -1.0;
    if (totalJ > 0.0 && intervalSec > 0.0 &&
        std::isfinite(intervalSec)) {
        const double remaining = std::max(0.0, totalJ - spentJ);
        const double budget_cap = remaining / intervalSec;
        cap = cap < 0.0 ? budget_cap : std::min(cap, budget_cap);
    }
    return cap;
}

std::vector<std::size_t>
chooseSuspensions(const std::vector<TenantPowerView> &tenants,
                  double capW)
{
    std::vector<std::size_t> suspended;
    if (capW < 0.0)
        return suspended;

    // Keep-order: highest priority first, then earliest arrival, then
    // lowest index -- the mirror of the admission controller's shed
    // order.
    std::vector<std::size_t> order(tenants.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         if (tenants[a].priority != tenants[b].priority)
                             return tenants[a].priority >
                                    tenants[b].priority;
                         if (tenants[a].arrivalSec !=
                             tenants[b].arrivalSec)
                             return tenants[a].arrivalSec <
                                    tenants[b].arrivalSec;
                         return a < b;
                     });

    double kept = 0.0;
    for (std::size_t i : order) {
        const double w = tenants[i].watts;
        if (!(w > 0.0) || !std::isfinite(w))
            continue; // unmetered: always kept
        if (kept + w <= capW + kEps)
            kept += w;
        else
            suspended.push_back(i);
    }
    std::sort(suspended.begin(), suspended.end());
    return suspended;
}

} // namespace diva
