#include "fleet/emit.h"

#include <string_view>

#include "common/format.h"

namespace diva
{

namespace
{

/** The run-level cells shared by every row of one fleet result. */
std::string
fleetPrefix(const FleetResult &f)
{
    std::string out;
    appendCsvCell(out, policyName(f.policy));
    appendCells(out, placementName(f.placement), f.fleetName,
                f.traceName);
    return out;
}

void
appendTenantRow(std::string &out, const std::string &prefix,
                const FleetResult &f, const FleetTenantMetrics &t)
{
    out += prefix;
    appendCells(out, t.job.name, t.job.model, t.resolvedBatch,
                t.job.priority, t.job.arrivalSec, t.job.departSec,
                t.job.qosStepsPerSec, t.job.qosDeadlineSec, t.job.steps,
                t.stepsDone);
    out += ','; // the pod name goes in unquoted
    out += t.finalPod == kNoPod ? std::string_view("-")
                                : std::string_view(f.pods[t.finalPod].name);
    appendCells(out, t.admitted, t.completed, t.departed, t.endSec,
                t.achievedStepsPerSec, t.isolatedStepsPerSec,
                t.stepLatency.p50Sec, t.stepLatency.p95Sec,
                t.stepLatency.p99Sec, t.qosAttainmentPct, t.energyJ,
                t.switchesIn, t.migrations, t.migrationSec,
                t.migrationEnergyJ, t.suspensions);
    out += ",\n"; // empty error cell
}

void
appendPodRow(std::string &out, const std::string &prefix,
             const FleetPodReport &p)
{
    out += prefix;
    appendCells(out, p.name, p.configName, p.chips, p.backend, p.placed,
                p.migratedIn, p.migratedOut, p.ended, p.stepsDone,
                p.busySec, p.utilization, p.energyJ, p.energyShare,
                p.contextSwitches, p.switchSec, p.switchEnergyJ,
                p.migrationSec, p.migrationEnergyJ, p.migrationBytes,
                p.stepLatency.count, p.stepLatency.p50Sec,
                p.stepLatency.p95Sec, p.stepLatency.p99Sec,
                p.meanQosAttainmentPct);
    out += ",\n"; // empty error cell
}

constexpr const char *kTenantCsvHeader =
    "policy,placement,fleet,trace,tenant,model,batch,priority,"
    "arrival_s,depart_s,qos_sps,qos_deadline_s,steps,"
    "steps_done,pod,admitted,completed,departed,end_s,"
    "achieved_sps,isolated_sps,lat_p50_s,lat_p95_s,lat_p99_s,"
    "qos_attainment_pct,energy_j,switches_in,migrations,"
    "migration_s,migration_energy_j,suspensions,error\n";

constexpr const char *kPodCsvHeader =
    "policy,placement,fleet,trace,pod,config,chips,backend,"
    "placed,migrated_in,migrated_out,ended,steps_done,busy_s,"
    "utilization,energy_j,energy_share,switches,switch_s,"
    "switch_energy_j,migration_s,migration_energy_j,"
    "migration_bytes,lat_count,lat_p50_s,lat_p95_s,lat_p99_s,"
    "mean_qos_attainment_pct,error\n";

} // namespace

void
writeFleetTenantCsv(std::ostream &os, const FleetResult &fleet)
{
    std::string buf = kTenantCsvHeader;
    const std::string prefix = fleetPrefix(fleet);
    if (!fleet.ok()) {
        // One placeholder cell per tenant column, error last.
        buf += prefix;
        buf += ",-,-,0,0,0,0,0,0,0,0,-,0,0,0,nan,nan,nan,nan,nan,nan,"
               "nan,nan,0,0,nan,nan,0";
        appendCell(buf, fleet.error);
        buf += '\n';
    } else {
        for (const FleetTenantMetrics &t : fleet.tenants) {
            appendTenantRow(buf, prefix, fleet, t);
            flushRows(os, buf);
        }
    }
    flushRows(os, buf, true);
}

void
writeFleetPodCsv(std::ostream &os, const FleetResult &fleet)
{
    std::string buf = kPodCsvHeader;
    const std::string prefix = fleetPrefix(fleet);
    if (!fleet.ok()) {
        buf += prefix;
        buf += ",-,-,0,-,0,0,0,0,0,0,nan,0,nan,0,0,0,0,0,0,0,nan,nan,"
               "nan,nan";
        appendCell(buf, fleet.error);
        buf += '\n';
    } else {
        for (const FleetPodReport &p : fleet.pods)
            appendPodRow(buf, prefix, p);
    }
    flushRows(os, buf, true);
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
