#include "fleet/emit.h"

#include <sstream>

#include "common/format.h"

namespace diva
{

namespace
{

/** The run-level cells shared by every row of one fleet result. */
std::string
fleetPrefix(const FleetResult &f)
{
    std::ostringstream oss;
    oss << csvCell(std::string(policyName(f.policy))) << ','
        << csvCell(std::string(placementName(f.placement))) << ','
        << csvCell(f.fleetName) << ',' << csvCell(f.traceName);
    return oss.str();
}

void
appendTenantRow(std::string &out, const std::string &prefix,
                const FleetResult &f, const FleetTenantMetrics &t)
{
    out += prefix;
    out += ',';
    appendCsvCell(out, t.job.name);
    out += ',';
    appendCsvCell(out, t.job.model);
    out += ',';
    out += std::to_string(t.resolvedBatch);
    out += ',';
    out += std::to_string(t.job.priority);
    out += ',';
    appendDouble(out, t.job.arrivalSec);
    out += ',';
    appendDouble(out, t.job.departSec);
    out += ',';
    appendDouble(out, t.job.qosStepsPerSec);
    out += ',';
    appendDouble(out, t.job.qosDeadlineSec);
    out += ',';
    out += std::to_string(t.job.steps);
    out += ',';
    out += std::to_string(t.stepsDone);
    out += ',';
    out += t.finalPod == kNoPod ? std::string("-")
                                : f.pods[t.finalPod].name;
    out += ',';
    out += t.admitted ? '1' : '0';
    out += ',';
    out += t.completed ? '1' : '0';
    out += ',';
    out += t.departed ? '1' : '0';
    out += ',';
    appendDouble(out, t.endSec);
    out += ',';
    appendDouble(out, t.achievedStepsPerSec);
    out += ',';
    appendDouble(out, t.isolatedStepsPerSec);
    out += ',';
    appendDouble(out, t.stepLatency.p50Sec);
    out += ',';
    appendDouble(out, t.stepLatency.p95Sec);
    out += ',';
    appendDouble(out, t.stepLatency.p99Sec);
    out += ',';
    appendDouble(out, t.qosAttainmentPct);
    out += ',';
    appendDouble(out, t.energyJ);
    out += ',';
    out += std::to_string(t.switchesIn);
    out += ',';
    out += std::to_string(t.migrations);
    out += ',';
    appendDouble(out, t.migrationSec);
    out += ',';
    appendDouble(out, t.migrationEnergyJ);
    out += ',';
    out += std::to_string(t.suspensions);
    out += ',';
    out += '\n';
}

} // namespace

std::string
fleetTenantCsvHeader()
{
    return "policy,placement,fleet,trace,tenant,model,batch,priority,"
           "arrival_s,depart_s,qos_sps,qos_deadline_s,steps,"
           "steps_done,pod,admitted,completed,departed,end_s,"
           "achieved_sps,isolated_sps,lat_p50_s,lat_p95_s,lat_p99_s,"
           "qos_attainment_pct,energy_j,switches_in,migrations,"
           "migration_s,migration_energy_j,suspensions,error";
}

std::string
fleetTenantCsvRow(const FleetResult &fleet,
                  const FleetTenantMetrics &tenant)
{
    std::string out;
    appendTenantRow(out, fleetPrefix(fleet), fleet, tenant);
    out.pop_back(); // the trailing newline is writeFleetTenantCsv's
    return out;
}

std::string
fleetPodCsvHeader()
{
    return "policy,placement,fleet,trace,pod,config,chips,backend,"
           "placed,migrated_in,migrated_out,ended,steps_done,busy_s,"
           "utilization,energy_j,energy_share,switches,switch_s,"
           "switch_energy_j,migration_s,migration_energy_j,"
           "migration_bytes,lat_count,lat_p50_s,lat_p95_s,lat_p99_s,"
           "mean_qos_attainment_pct,error";
}

std::string
fleetPodCsvRow(const FleetResult &fleet, const FleetPodReport &p)
{
    std::ostringstream oss;
    oss << fleetPrefix(fleet) << ',' << csvCell(p.name) << ','
        << csvCell(p.configName) << ',' << p.chips << ','
        << csvCell(p.backend) << ',' << p.placed << ',' << p.migratedIn
        << ',' << p.migratedOut << ',' << p.ended << ',' << p.stepsDone
        << ',' << formatDouble(p.busySec) << ','
        << formatDouble(p.utilization) << ','
        << formatDouble(p.energyJ) << ','
        << formatDouble(p.energyShare) << ',' << p.contextSwitches
        << ',' << formatDouble(p.switchSec) << ','
        << formatDouble(p.switchEnergyJ) << ','
        << formatDouble(p.migrationSec) << ','
        << formatDouble(p.migrationEnergyJ) << ',' << p.migrationBytes
        << ',' << p.stepLatency.count << ','
        << formatDouble(p.stepLatency.p50Sec) << ','
        << formatDouble(p.stepLatency.p95Sec) << ','
        << formatDouble(p.stepLatency.p99Sec) << ','
        << formatDouble(p.meanQosAttainmentPct) << ',';
    return oss.str();
}

void
writeFleetTenantCsv(std::ostream &os, const FleetResult &fleet)
{
    os << fleetTenantCsvHeader() << '\n';
    if (!fleet.ok()) {
        // One placeholder cell per tenant column, error last.
        os << fleetPrefix(fleet)
           << ",-,-,0,0,0,0,0,0,0,0,-,0,0,0,nan,nan,nan,nan,nan,nan,"
              "nan,nan,0,0,nan,nan,0,"
           << csvCell(fleet.error) << '\n';
        return;
    }
    const std::string prefix = fleetPrefix(fleet);
    std::string buf;
    buf.reserve(1 << 20);
    for (const FleetTenantMetrics &t : fleet.tenants) {
        appendTenantRow(buf, prefix, fleet, t);
        if (buf.size() > (1 << 20) - 1024) {
            os.write(buf.data(), std::streamsize(buf.size()));
            buf.clear();
        }
    }
    os.write(buf.data(), std::streamsize(buf.size()));
}

void
writeFleetPodCsv(std::ostream &os, const FleetResult &fleet)
{
    os << fleetPodCsvHeader() << '\n';
    if (!fleet.ok()) {
        os << fleetPrefix(fleet)
           << ",-,-,0,-,0,0,0,0,0,0,nan,0,nan,0,0,0,0,0,0,0,nan,nan,"
              "nan,nan,"
           << csvCell(fleet.error) << '\n';
        return;
    }
    for (const FleetPodReport &p : fleet.pods)
        os << fleetPodCsvRow(fleet, p) << '\n';
}

void
writeFleetJson(std::ostream &os, const FleetResult &f,
               bool includeTenants)
{
    os << "{\n  \"policy\": \"" << policyName(f.policy)
       << "\", \"placement\": \"" << placementName(f.placement)
       << "\", \"fleet\": \"" << jsonEscape(f.fleetName)
       << "\", \"trace\": \"" << jsonEscape(f.traceName)
       << "\", \"quantum\": " << f.quantumIters
       << ", \"wall_s\": " << jsonNumber(f.wallLimitSec);
    if (!f.ok()) {
        os << ", \"error\": \"" << jsonEscape(f.error) << "\"\n}\n";
        return;
    }
    os << ",\n  \"pods_total\": " << f.pods.size()
       << ", \"placed\": " << f.placedCount
       << ", \"rejected\": " << f.rejectedCount
       << ", \"steps\": " << f.totalSteps
       << ", \"makespan_s\": " << jsonNumber(f.makespanSec)
       << ", \"energy_j\": " << jsonNumber(f.totalEnergyJ)
       << ", \"context_switches\": " << f.contextSwitches
       << ",\n  \"migrations\": " << f.migrations
       << ", \"migration_s\": " << jsonNumber(f.migrationSec)
       << ", \"migration_energy_j\": " << jsonNumber(f.migrationEnergyJ)
       << ", \"migration_bytes\": " << f.migrationBytes
       << ", \"suspensions\": " << f.suspensions
       << ", \"mean_qos_attainment_pct\": "
       << jsonNumber(f.meanQosAttainmentPct)
       << ",\n  \"lat_count\": " << f.aggStepLatency.count
       << ", \"lat_mean_s\": " << jsonNumber(f.aggStepLatency.meanSec)
       << ", \"lat_p50_s\": " << jsonNumber(f.aggStepLatency.p50Sec)
       << ", \"lat_p95_s\": " << jsonNumber(f.aggStepLatency.p95Sec)
       << ", \"lat_p99_s\": " << jsonNumber(f.aggStepLatency.p99Sec)
       << ", \"lat_max_s\": " << jsonNumber(f.aggStepLatency.maxSec)
       << ",\n  \"pods\": [";
    for (std::size_t p = 0; p < f.pods.size(); ++p) {
        const FleetPodReport &r = f.pods[p];
        os << (p ? ",\n    {" : "\n    {") << "\"pod\": \""
           << jsonEscape(r.name) << "\", \"config\": \""
           << jsonEscape(r.configName) << "\", \"chips\": " << r.chips
           << ", \"backend\": \"" << jsonEscape(r.backend)
           << "\", \"placed\": " << r.placed
           << ", \"migrated_in\": " << r.migratedIn
           << ", \"migrated_out\": " << r.migratedOut
           << ", \"ended\": " << r.ended
           << ", \"steps_done\": " << r.stepsDone
           << ", \"busy_s\": " << jsonNumber(r.busySec)
           << ", \"utilization\": " << jsonNumber(r.utilization)
           << ", \"energy_j\": " << jsonNumber(r.energyJ)
           << ", \"energy_share\": " << jsonNumber(r.energyShare)
           << ", \"switches\": " << r.contextSwitches
           << ", \"switch_s\": " << jsonNumber(r.switchSec)
           << ", \"switch_energy_j\": " << jsonNumber(r.switchEnergyJ)
           << ", \"migration_s\": " << jsonNumber(r.migrationSec)
           << ", \"migration_energy_j\": "
           << jsonNumber(r.migrationEnergyJ)
           << ", \"migration_bytes\": " << r.migrationBytes
           << ", \"lat_count\": " << r.stepLatency.count
           << ", \"lat_p50_s\": " << jsonNumber(r.stepLatency.p50Sec)
           << ", \"lat_p95_s\": " << jsonNumber(r.stepLatency.p95Sec)
           << ", \"lat_p99_s\": " << jsonNumber(r.stepLatency.p99Sec)
           << ", \"mean_qos_attainment_pct\": "
           << jsonNumber(r.meanQosAttainmentPct) << "}";
    }
    os << "\n  ]";
    if (includeTenants) {
        os << ",\n  \"tenants\": [";
        for (std::size_t i = 0; i < f.tenants.size(); ++i) {
            const FleetTenantMetrics &t = f.tenants[i];
            os << (i ? ",\n    {" : "\n    {") << "\"name\": \""
               << jsonEscape(t.job.name) << "\", \"model\": \""
               << jsonEscape(t.job.model)
               << "\", \"batch\": " << t.resolvedBatch
               << ", \"priority\": " << t.job.priority
               << ", \"arrival_s\": " << jsonNumber(t.job.arrivalSec)
               << ", \"depart_s\": " << jsonNumber(t.job.departSec)
               << ", \"qos_sps\": " << jsonNumber(t.job.qosStepsPerSec)
               << ", \"steps\": " << t.job.steps
               << ", \"steps_done\": " << t.stepsDone << ", \"pod\": "
               << (t.finalPod == kNoPod
                       ? std::string("null")
                       : '"' + jsonEscape(f.pods[t.finalPod].name) +
                             '"')
               << ", \"admitted\": " << (t.admitted ? "true" : "false")
               << ", \"completed\": "
               << (t.completed ? "true" : "false")
               << ", \"departed\": " << (t.departed ? "true" : "false")
               << ", \"end_s\": " << jsonNumber(t.endSec)
               << ", \"achieved_sps\": "
               << jsonNumber(t.achievedStepsPerSec)
               << ", \"isolated_sps\": "
               << jsonNumber(t.isolatedStepsPerSec)
               << ", \"lat_p50_s\": " << jsonNumber(t.stepLatency.p50Sec)
               << ", \"lat_p95_s\": " << jsonNumber(t.stepLatency.p95Sec)
               << ", \"lat_p99_s\": " << jsonNumber(t.stepLatency.p99Sec)
               << ", \"qos_attainment_pct\": "
               << jsonNumber(t.qosAttainmentPct)
               << ", \"energy_j\": " << jsonNumber(t.energyJ)
               << ", \"switches_in\": " << t.switchesIn
               << ", \"migrations\": " << t.migrations
               << ", \"migration_s\": " << jsonNumber(t.migrationSec)
               << ", \"migration_energy_j\": "
               << jsonNumber(t.migrationEnergyJ)
               << ", \"suspensions\": " << t.suspensions << "}";
        }
        os << "\n  ]";
    }
    os << "\n}\n";
}

} // namespace diva
