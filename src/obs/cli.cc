#include "obs/cli.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace diva
{
namespace obs
{

bool
probeWritable(const std::string &path, const std::string &flag)
{
    if (path.empty())
        return true;
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app)) {
        std::cerr << "error: " << flag << " path '" << path
                  << "' is not writable\n";
        return false;
    }
    if (!existed)
        std::filesystem::remove(path, ec);
    return true;
}

bool
CliObs::activate()
{
    SloSpec slo;
    if (!sloSpecText.empty()) {
        std::string err;
        if (!parseSloSpec(sloSpecText, &slo, &err)) {
            std::cerr << "error: " << err << "\n";
            return false;
        }
    }
    if (!metricsOut.empty())
        MetricsRegistry::instance().enable(true);
    if (profile)
        Profiler::instance().enable(true);
    if (!traceOut.empty())
        sink = std::make_unique<TraceSink>(traceMaxEvents);
    if (!timeseriesOut.empty() || slo.enabled() ||
        obsWindowSec > 0.0) {
        telemetry = std::make_unique<RunTelemetry>();
        telemetry->windowSec = obsWindowSec;
        telemetry->slo = slo;
    }
    return true;
}

namespace
{

/** Write one output file through `emit`; false (with a DIVA_WARN
 *  naming `what`) if it could not be written. */
bool
writeFile(const std::string &path, const char *what,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path);
    if (os)
        emit(os);
    if (os)
        return true;
    DIVA_WARN("could not write ", what, " to ", path);
    return false;
}

} // namespace

bool
CliObs::finish()
{
    bool ok = true;
    if (!metricsOut.empty()) {
        // Cap-induced trace loss belongs in the metrics snapshot too,
        // so it is visible without opening the trace file.
        if (sink) {
            auto &metrics = MetricsRegistry::instance();
            metrics.addCounter("trace.dropped_events",
                               sink->dropped());
            for (const auto &[name, droppedCount] :
                 sink->droppedByTrack())
                metrics.addCounter(
                    "trace.track." + name + ".dropped_events",
                    droppedCount);
        }
        ok = writeFile(metricsOut, "metrics", [](std::ostream &os) {
            MetricsRegistry::instance().snapshot().writeJson(os);
        });
    }
    if (!traceOut.empty() && sink)
        ok = writeFile(traceOut, "trace",
                       [&](std::ostream &os) { sink->write(os); }) &&
             ok;
    if (telemetry && !timeseriesOut.empty())
        ok = writeFile(timeseriesOut, "timeseries",
                       [&](std::ostream &os) {
                           if (timeseriesOut.ends_with(".csv"))
                               telemetry->writeCsv(os);
                           else
                               telemetry->writeJson(os);
                       }) &&
             ok;
    if (telemetry)
        telemetry->printSloSummary(std::cerr);
    if (profile)
        Profiler::instance().writeTable(std::cerr);
    return ok;
}

} // namespace obs
} // namespace diva
