#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench
{

namespace
{

/** Sums folded in a different order agree to this relative error. */
constexpr double kRounding = 1e-9;

bool
closeTo(double a, double b, double rel)
{
    return std::abs(a - b) <= rel * std::max({1.0, std::abs(a),
                                              std::abs(b)});
}

template <class... Parts>
std::string
text(const Parts &...parts)
{
    std::ostringstream os;
    os.precision(17);
    (os << ... << parts);
    return os.str();
}

} // namespace

double
topPodShare(const diva::FleetResult &fleet)
{
    std::uint64_t top = 0;
    std::uint64_t total = 0;
    for (const diva::FleetPodReport &p : fleet.pods) {
        top = std::max(top, p.stepsDone);
        total += p.stepsDone;
    }
    return total ? double(top) / double(total) : 0.0;
}

Problems
checkFleet(const diva::FleetResult &fleet, std::size_t sessions)
{
    Problems out;
    if (!fleet.ok()) {
        out.push_back("fleet: run failed: " + fleet.error);
        return out;
    }
    if (fleet.placedCount + fleet.rejectedCount != sessions)
        out.push_back(text("fleet: placed ", fleet.placedCount,
                           " + rejected ", fleet.rejectedCount,
                           " != sessions ", sessions));
    if (fleet.tenants.size() != sessions)
        out.push_back(text("fleet: ", fleet.tenants.size(),
                           " tenant rows for ", sessions, " sessions"));

    std::uint64_t podSteps = 0;
    double podEnergy = 0.0;
    for (const diva::FleetPodReport &p : fleet.pods) {
        podSteps += p.stepsDone;
        podEnergy += p.energyJ;
        if (!(p.utilization <= 1.0 + kRounding) && p.stepsDone > 0)
            out.push_back(text("fleet: pod ", p.name, " utilization ",
                               p.utilization, " > 1"));
    }
    std::uint64_t tenantSteps = 0;
    double tenantEnergy = 0.0;
    for (const diva::FleetTenantMetrics &t : fleet.tenants) {
        tenantSteps += t.stepsDone;
        tenantEnergy += t.energyJ;
    }
    if (podSteps != fleet.totalSteps || tenantSteps != fleet.totalSteps)
        out.push_back(text("fleet: steps disagree: pods ", podSteps,
                           ", total ", fleet.totalSteps, ", tenants ",
                           tenantSteps));
    if (!closeTo(podEnergy, fleet.totalEnergyJ, kRounding))
        out.push_back(text("fleet: pod energy ", podEnergy,
                           " J != fleet energy ", fleet.totalEnergyJ,
                           " J"));
    if (!closeTo(tenantEnergy, fleet.totalEnergyJ, 1e-6))
        out.push_back(text("fleet: tenant energy ", tenantEnergy,
                           " J != fleet energy ", fleet.totalEnergyJ,
                           " J"));
    return out;
}

Problems
checkTelemetry(std::uint64_t exactSumFailures, std::uint64_t auditedSteps)
{
    Problems out;
    if (auditedSteps == 0)
        out.push_back("telemetry: no step was audited");
    if (exactSumFailures != 0)
        out.push_back(text("telemetry: ", exactSumFailures,
                           " steps whose latency components do not "
                           "sum exactly"));
    return out;
}

Problems
checkSweep(const diva::SweepReport &report, std::size_t expanded)
{
    Problems out;
    if (report.results.size() != expanded)
        out.push_back(text("sweep: ", report.results.size(),
                           " results for ", expanded,
                           " expanded scenarios"));
    std::size_t failed = 0;
    for (const diva::ScenarioResult &r : report.results)
        if (!r.ok()) {
            if (failed == 0)
                out.push_back("sweep: scenario " + r.scenario.label() +
                              " failed: " + r.error);
            ++failed;
        }
    if (failed != report.failures)
        out.push_back(text("sweep: report counts ", report.failures,
                           " failures, results hold ", failed));
    if (failed > 0)
        out.push_back(text("sweep: ", failed, " failed scenarios"));
    return out;
}

Problems
checkServe(const diva::ServeResult &serve, std::size_t sessions,
           std::size_t expectedAdmitted)
{
    Problems out;
    const std::string who =
        std::string("serve ") + diva::policyName(serve.policy) + ": ";
    if (!serve.ok()) {
        out.push_back(who + "run failed: " + serve.error);
        return out;
    }
    if (serve.tenants.size() != sessions)
        out.push_back(text(who, serve.tenants.size(), " rows for ",
                           sessions, " sessions"));
    std::size_t admitted = 0;
    std::size_t rejected = 0;
    double energy = 0.0;
    for (const diva::TenantMetrics &t : serve.tenants) {
        energy += t.energyJ;
        if (t.admitted) {
            ++admitted;
        } else {
            ++rejected;
            if (t.stepsDone != 0)
                out.push_back(text(who, "rejected session ", t.job.name,
                                   " ran ", t.stepsDone, " steps"));
        }
    }
    if (admitted + rejected != sessions)
        out.push_back(text(who, "admitted ", admitted, " + rejected ",
                           rejected, " != sessions ", sessions));
    if (admitted != expectedAdmitted)
        out.push_back(text(who, "admitted ", admitted,
                           " but the controller admits ",
                           expectedAdmitted));
    if (!closeTo(energy, serve.totalEnergyJ, 1e-6))
        out.push_back(text(who, "tenant energy ", energy,
                           " J != total ", serve.totalEnergyJ, " J"));
    return out;
}

Problems
checkShare(const char *what, double share, double min, double max)
{
    if (share >= min && share <= max)
        return {};
    return {text(what, " = ", share, " outside [", min, ", ", max,
                 "]: the workload no longer is what its name says")};
}

Problems
CountLedger::record(const std::map<std::string, double> &counts)
{
    Problems out;
    if (first_) {
        reference_ = counts;
        first_ = false;
        return out;
    }
    for (const auto &[name, want] : reference_) {
        const auto it = counts.find(name);
        if (it == counts.end())
            out.push_back("count " + name + " missing");
        else if (it->second != want)
            out.push_back(text("count ", name, " changed between "
                               "iterations: ", want, " -> ", it->second));
    }
    for (const auto &[name, got] : counts)
        if (!reference_.count(name))
            out.push_back(text("count ", name, " = ", got,
                               " appeared after the first iteration"));
    return out;
}

} // namespace perfbench
