#include "tenant/emit.h"

#include "common/format.h"

namespace diva
{

namespace
{

/** The run-level cells shared by every tenant row of one serve. */
std::string
servePrefix(const ServeResult &s)
{
    std::string out;
    appendCsvCell(out, policyName(s.policy));
    appendCells(out, s.configName, s.workloadName, s.chips,
                s.quantumIters, s.wallLimitSec);
    return out;
}

void
appendTenantRow(std::string &out, const std::string &prefix,
                const TenantMetrics &t)
{
    out += prefix;
    appendCells(out, t.job.name, t.job.model, t.job.modelScale,
                algorithmName(t.job.algorithm), t.resolvedBatch,
                t.job.priority, t.job.arrivalSec, t.job.departSec,
                t.job.qosStepsPerSec, t.job.qosDeadlineSec, t.job.steps,
                t.stepsDone, t.completed, t.departed, t.admitted,
                t.waitSec, t.endSec, t.achievedStepsPerSec,
                t.isolatedStepsPerSec, t.slowdown, t.stepLatency.p50Sec,
                t.stepLatency.p95Sec, t.stepLatency.p99Sec,
                t.qosAttainmentPct, t.energyJ, t.energyShare,
                t.switchesIn);
    out += ",\n"; // empty error cell
}

constexpr const char *kServeCsvHeader =
    "policy,config,workload,chips,quantum,wall_s,tenant,model,"
    "scale,algorithm,batch,priority,arrival_s,depart_s,qos_sps,"
    "qos_deadline_s,steps,steps_done,completed,departed,"
    "admitted,wait_s,end_s,achieved_sps,isolated_sps,slowdown,"
    "lat_p50_s,lat_p95_s,lat_p99_s,qos_attainment_pct,"
    "energy_j,energy_share,switches_in,error\n";

} // namespace

void
writeServeCsv(std::ostream &os, const std::vector<ServeResult> &serves)
{
    std::string buf = kServeCsvHeader;
    for (const ServeResult &s : serves) {
        const std::string prefix = servePrefix(s);
        if (!s.ok()) {
            // One placeholder cell per tenant column, error last.
            buf += prefix;
            buf += ",-,-,0,-,0,0,0,0,0,0,0,0,0,0,0,nan,nan,nan,nan,nan,"
                   "nan,nan,nan,nan,nan,nan,0";
            appendCell(buf, s.error);
            buf += '\n';
            continue;
        }
        for (const TenantMetrics &t : s.tenants) {
            appendTenantRow(buf, prefix, t);
            flushRows(os, buf);
        }
    }
    flushRows(os, buf, true);
}

void
writeServeJson(std::ostream &os, const std::vector<ServeResult> &serves)
{
    os << "{\n  \"serves\": [";
    for (std::size_t i = 0; i < serves.size(); ++i) {
        const ServeResult &s = serves[i];
        os << (i ? ",\n    {" : "\n    {") << "\"policy\": \""
           << policyName(s.policy) << "\", \"config\": \""
           << jsonEscape(s.configName) << "\", \"workload\": \""
           << jsonEscape(s.workloadName) << "\", \"chips\": " << s.chips
           << ", \"quantum\": " << s.quantumIters << ", \"wall_s\": "
           << jsonNumber(s.wallLimitSec);
        if (!s.ok()) {
            os << ", \"error\": \"" << jsonEscape(s.error) << "\"}";
            continue;
        }
        const std::size_t admitted = s.admittedCount();
        os << ", \"makespan_s\": " << jsonNumber(s.makespanSec)
           << ", \"energy_j\": " << jsonNumber(s.totalEnergyJ)
           << ", \"context_switches\": " << s.contextSwitches
           << ", \"switch_s\": " << jsonNumber(s.switchSec)
           << ", \"switch_energy_j\": " << jsonNumber(s.switchEnergyJ)
           << ", \"switch_dram_bytes\": " << s.switchDramBytes
           << ", \"mean_qos_attainment_pct\": "
           << jsonNumber(s.meanQosAttainmentPct)
           << ", \"admitted\": " << admitted << ", \"rejected\": "
           << s.tenants.size() - admitted
           << ", \"lat_count\": " << s.aggStepLatency.count
           << ", \"lat_mean_s\": " << jsonNumber(s.aggStepLatency.meanSec)
           << ", \"lat_p50_s\": " << jsonNumber(s.aggStepLatency.p50Sec)
           << ", \"lat_p95_s\": " << jsonNumber(s.aggStepLatency.p95Sec)
           << ", \"lat_p99_s\": " << jsonNumber(s.aggStepLatency.p99Sec)
           << ", \"lat_max_s\": " << jsonNumber(s.aggStepLatency.maxSec)
           << ", \"tenants\": [";
        for (std::size_t j = 0; j < s.tenants.size(); ++j) {
            const TenantMetrics &t = s.tenants[j];
            os << (j ? ", {" : "{") << "\"name\": \""
               << jsonEscape(t.job.name) << "\", \"model\": \""
               << jsonEscape(t.job.model) << "\", \"algorithm\": \""
               << jsonEscape(algorithmName(t.job.algorithm))
               << "\", \"batch\": " << t.resolvedBatch
               << ", \"priority\": " << t.job.priority
               << ", \"arrival_s\": " << jsonNumber(t.job.arrivalSec)
               << ", \"depart_s\": " << jsonNumber(t.job.departSec)
               << ", \"qos_sps\": " << jsonNumber(t.job.qosStepsPerSec)
               << ", \"qos_deadline_s\": "
               << jsonNumber(t.job.qosDeadlineSec) << ", \"steps\": "
               << t.job.steps << ", \"steps_done\": " << t.stepsDone
               << ", \"completed\": " << (t.completed ? "true" : "false")
               << ", \"departed\": " << (t.departed ? "true" : "false")
               << ", \"admitted\": " << (t.admitted ? "true" : "false")
               << ", \"wait_s\": " << jsonNumber(t.waitSec)
               << ", \"end_s\": " << jsonNumber(t.endSec)
               << ", \"achieved_sps\": "
               << jsonNumber(t.achievedStepsPerSec)
               << ", \"isolated_sps\": "
               << jsonNumber(t.isolatedStepsPerSec) << ", \"slowdown\": "
               << jsonNumber(t.slowdown)
               << ", \"lat_count\": " << t.stepLatency.count
               << ", \"lat_p50_s\": " << jsonNumber(t.stepLatency.p50Sec)
               << ", \"lat_p95_s\": " << jsonNumber(t.stepLatency.p95Sec)
               << ", \"lat_p99_s\": " << jsonNumber(t.stepLatency.p99Sec)
               << ", \"lat_max_s\": " << jsonNumber(t.stepLatency.maxSec)
               << ", \"qos_attainment_pct\": "
               << jsonNumber(t.qosAttainmentPct) << ", \"energy_j\": "
               << jsonNumber(t.energyJ) << ", \"energy_share\": "
               << jsonNumber(t.energyShare) << ", \"switches_in\": "
               << t.switchesIn << "}";
        }
        os << "]}";
    }
    os << "\n  ]\n}\n";
}

} // namespace diva
