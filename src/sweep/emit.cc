#include "sweep/emit.h"

#include <limits>

#include "backend/backend.h"

namespace diva
{

std::string
csvHeader()
{
    return "config,dataflow,ppu,pe_rows,pe_cols,sram_mib,dram_gbs,"
           "backend,chips,ici_gbs,link_lat,model,scale,algorithm,"
           "batch,microbatch,cycles,compute_cycles,allreduce_cycles,"
           "seconds,utilization,energy_j,dram_bytes,"
           "postproc_dram_bytes,engine_power_w,engine_area_mm2,error";
}

void
appendCsvRow(std::string &out, const ScenarioResult &r)
{
    const Scenario &s = r.scenario;
    const bool gpu = s.backend == SweepBackend::kGpu;
    const bool pod = s.backend == SweepBackend::kMultiChip;
    // Metrics the backend does not model are emitted as empty cells
    // (integral columns) or "nan" (floating columns), never as fake
    // zeros a reader could mistake for measurements.
    const BackendCaps caps = capabilities(s.backend);
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    appendCsvCell(out, gpu ? s.gpu.name : s.config.name);
    appendCells(out, gpu ? "-" : dataflowName(s.config.dataflow),
                gpu ? 0 : int(s.config.hasPpu), gpu ? 0 : s.config.peRows,
                gpu ? 0 : s.config.peCols,
                gpu ? 0 : s.config.sramBytes >> 20,
                gpu ? s.gpu.bandwidthGBs : s.config.dramBandwidthGBs,
                backendName(s.backend), pod ? s.pod.numChips : 1);
    // Pod link design point; zeros for backends without interconnect.
    if (pod)
        appendCells(out, s.pod.interconnectGBs, s.pod.linkLatencyCycles);
    else
        out += ",0,0";
    appendCells(out, s.model, s.modelScale, algorithmName(s.algorithm),
                r.resolvedBatch, s.microbatch);
    if (caps.cycles)
        appendCells(out, r.cycles, r.computeCycles, r.allReduceCycles);
    else
        out += ",,,";
    appendCells(out, r.seconds, caps.utilization ? r.utilization : kNaN,
                caps.energy ? r.energyJ : kNaN);
    if (caps.dramTraffic)
        appendCells(out, r.dramBytes, r.postProcDramBytes);
    else
        out += ",,";
    appendCells(out, caps.engineRating ? r.enginePowerW : kNaN,
                caps.engineRating ? r.engineAreaMm2 : kNaN, r.error);
    out += '\n';
}

void
writeCsv(std::ostream &os, const SweepReport &report)
{
    std::string buf = csvHeader();
    buf += '\n';
    for (const ScenarioResult &r : report.results) {
        appendCsvRow(buf, r);
        flushRows(os, buf);
    }
    flushRows(os, buf, true);
}

void
writeJson(std::ostream &os, const SweepReport &report)
{
    // No cache accounting here: the file is a pure function of the
    // scenario list, so a rerun against a warm disk cache is
    // byte-identical. Cache hit/miss counts go to the CLI summary.
    os << "{\n  \"failures\": " << report.failures
       << ",\n  \"results\": [";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const ScenarioResult &r = report.results[i];
        const Scenario &s = r.scenario;
        const bool gpu = s.backend == SweepBackend::kGpu;
        // Unmodeled metrics are null, never fake zeros.
        const BackendCaps caps = capabilities(s.backend);
        os << (i ? ",\n    {" : "\n    {") << "\"config\": \""
           << jsonEscape(gpu ? s.gpu.name : s.config.name)
           << "\", \"backend\": \"" << backendName(s.backend) << '"';
        if (s.backend == SweepBackend::kMultiChip)
            os << ", \"chips\": " << s.pod.numChips << ", \"ici_gbs\": "
               << jsonNumber(s.pod.interconnectGBs)
               << ", \"link_lat\": " << s.pod.linkLatencyCycles;
        os << ", \"model\": \"" << jsonEscape(s.model)
           << "\", \"scale\": " << s.modelScale << ", \"algorithm\": \""
           << jsonEscape(algorithmName(s.algorithm))
           << "\", \"batch\": " << r.resolvedBatch
           << ", \"microbatch\": " << s.microbatch << ", \"cycles\": ";
        if (caps.cycles)
            os << r.cycles << ", \"compute_cycles\": "
               << r.computeCycles << ", \"allreduce_cycles\": "
               << r.allReduceCycles;
        else
            os << "null, \"compute_cycles\": null"
               << ", \"allreduce_cycles\": null";
        os << ", \"seconds\": " << jsonNumber(r.seconds)
           << ", \"utilization\": "
           << (caps.utilization ? jsonNumber(r.utilization) : "null")
           << ", \"energy_j\": "
           << (caps.energy ? jsonNumber(r.energyJ) : "null")
           << ", \"dram_bytes\": ";
        if (caps.dramTraffic)
            os << r.dramBytes;
        else
            os << "null";
        if (!r.ok())
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace diva
