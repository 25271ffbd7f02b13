#include "fleet/fleet.h"

#include <cmath>
#include <sstream>

#include "common/parse.h"

namespace diva
{

std::string
PodSpec::validationError() const
{
    if (chips < 1)
        return "pod '" + name + "': chip count must be >= 1";
    const std::string cfg_err = config.validationError();
    if (!cfg_err.empty())
        return "pod '" + name + "': " + cfg_err;
    if (chips > 1) {
        if (!(pod.interconnectGBs > 0.0) ||
            !std::isfinite(pod.interconnectGBs))
            return "pod '" + name +
                   "': interconnect bandwidth must be finite and > 0";
    }
    return "";
}

std::string
FleetSpec::validationError() const
{
    if (pods.empty())
        return "fleet has no pods";
    for (const PodSpec &p : pods) {
        const std::string err = p.validationError();
        if (!err.empty())
            return err;
    }
    if (!(podDemandCap > 0.0) || !std::isfinite(podDemandCap))
        return "pod demand cap must be finite and > 0";
    if (rebalance.enabled) {
        if (!(rebalance.skewThreshold > 0.0) ||
            !std::isfinite(rebalance.skewThreshold))
            return "rebalance skew threshold must be finite and > 0";
        if (rebalance.maxPerRound < 1)
            return "rebalance migration cap must be >= 1";
    }
    if (!(budget.powerCapW >= 0.0) || !std::isfinite(budget.powerCapW))
        return "power cap must be finite and >= 0";
    if (!(budget.totalJ >= 0.0) || !std::isfinite(budget.totalJ))
        return "energy budget must be finite and >= 0";
    if (!(controlIntervalSec >= 0.0) ||
        !std::isfinite(controlIntervalSec))
        return "control interval must be finite and >= 0";
    if (!std::isfinite(workingSetFraction) ||
        workingSetFraction <= 0.0 || workingSetFraction > 1.0)
        return "working-set fraction must be in (0, 1]";
    if (quantumIters < 1)
        return "quantum must be >= 1 iteration";
    if (!(wallLimitSec >= 0.0) || !std::isfinite(wallLimitSec))
        return "wall budget must be finite and >= 0";
    return "";
}

std::optional<std::vector<PodSpec>>
parsePodTemplate(const std::string &text, std::string *error)
{
    error->clear();
    Dataflow dataflow = Dataflow::kOuterProduct;
    bool ppu = true;
    bool ppu_set = false;
    int chips = 1;
    int count = 1;
    double ici_gbs = 0.0;
    long long link_lat = -1;

    auto apply = [&](const std::string &key, const std::string &value) {
        if (key == "df" || key == "dataflow") {
            if (value == "WS")
                dataflow = Dataflow::kWeightStationary;
            else if (value == "OS")
                dataflow = Dataflow::kOutputStationary;
            else if (value == "DiVa")
                dataflow = Dataflow::kOuterProduct;
            else {
                *error = "df takes WS, OS, or DiVa; got '" + value + "'";
                return false;
            }
        } else if (key == "ppu") {
            if (value == "on")
                ppu = true;
            else if (value == "off")
                ppu = false;
            else {
                *error = "ppu takes on/off, got '" + value + "'";
                return false;
            }
            ppu_set = true;
        } else if (key == "chips") {
            const auto n = parseBoundedIntText(value, 1, 65536);
            if (!n) {
                *error = "chips must be in [1, 65536], got '" + value +
                         "'";
                return false;
            }
            chips = int(*n);
        } else if (key == "count") {
            const auto n = parseBoundedIntText(value, 1, 65536);
            if (!n) {
                *error = "count must be in [1, 65536], got '" + value +
                         "'";
                return false;
            }
            count = int(*n);
        } else if (key == "ici-gbs") {
            const auto d = parseDoubleText(value);
            if (!d || !(*d > 0.0)) {
                *error = "ici-gbs must be > 0, got '" + value + "'";
                return false;
            }
            ici_gbs = *d;
        } else if (key == "link-lat") {
            const auto n = parseBoundedIntText(value, 0, 1000000);
            if (!n) {
                *error = "link-lat must be in [0, 1e6] cycles, got '" +
                         value + "'";
                return false;
            }
            link_lat = *n;
        } else {
            *error = "unknown key '" + key +
                     "' (want df, ppu, chips, count, ici-gbs, or "
                     "link-lat)";
            return false;
        }
        return true;
    };
    if (!forEachKeyValue(text, error, apply))
        return std::nullopt;

    // WS has no PPU datapath; an explicit ppu=on is a spec error
    // rather than a silent downgrade.
    const bool ws = dataflow == Dataflow::kWeightStationary;
    if (ws && ppu_set && ppu) {
        *error = "df=WS has no PPU datapath (use ppu=off)";
        return std::nullopt;
    }
    PodSpec proto;
    proto.config = presetConfig(dataflow, ppu && !ws);
    proto.chips = chips;
    proto.pod.numChips = chips;
    if (ici_gbs > 0.0)
        proto.pod.interconnectGBs = ici_gbs;
    if (link_lat >= 0)
        proto.pod.linkLatencyCycles = Cycles(link_lat);
    return std::vector<PodSpec>(std::size_t(count), proto);
}

FleetSpec
buildFleet(const std::vector<std::vector<PodSpec>> &groups)
{
    FleetSpec fleet;
    for (const std::vector<PodSpec> &group : groups)
        fleet.pods.insert(fleet.pods.end(), group.begin(), group.end());
    for (std::size_t i = 0; i < fleet.pods.size(); ++i) {
        std::ostringstream oss;
        oss << "p" << i;
        fleet.pods[i].name = oss.str();
    }
    {
        std::ostringstream oss;
        oss << "fleet-" << fleet.pods.size();
        fleet.name = oss.str();
    }
    return fleet;
}

std::vector<PodSpec>
defaultPodGroup(int n)
{
    if (n < 0)
        n = 0;
    PodSpec proto;
    proto.config = divaDefault(true);
    proto.chips = 1;
    proto.pod.numChips = 1;
    return std::vector<PodSpec>(std::size_t(n), proto);
}

} // namespace diva
