/**
 * @file
 * Shared observability plumbing for the CLI tools: one struct holding
 * the parsed --metrics-out / --trace-out / --timeseries-out /
 * --obs-window-s / --slo-p99-s / --profile / --trace-max-events
 * values, the switch-on step, and the end-of-run emission of metrics
 * JSON, trace JSON, the timeseries document and the profile table.
 * All three tools (diva_sweep, diva_serve, diva_fleet) funnel through
 * this so the flags mean the same thing everywhere; the flags
 * themselves are declared once in tools/cli_parse.h.
 */

#ifndef DIVA_OBS_CLI_H
#define DIVA_OBS_CLI_H

#include <memory>
#include <string>

#include "obs/slo.h"
#include "obs/trace.h"

namespace diva
{
namespace obs
{

struct CliObs
{
    std::string metricsOut;    ///< --metrics-out FILE.json
    std::string traceOut;      ///< --trace-out FILE.json
    std::string timeseriesOut; ///< --timeseries-out FILE.{json,csv}
    bool profile = false;      ///< --profile (stderr table)

    /** --obs-window-s W (<= 0: auto, trace span / 64). */
    double obsWindowSec = 0.0;

    /** Raw --slo-p99-s text; parsed and validated by activate(). */
    std::string sloSpecText;

    /** --trace-max-events N (per track; see obs/trace.h). */
    std::size_t traceMaxEvents = TraceSink::kDefaultMaxEventsPerTrack;

    /** Live only between activate() and finish() when tracing is on. */
    std::unique_ptr<TraceSink> sink;

    /** Live only between activate() and finish() when the windowed
     *  telemetry layer is on (--timeseries-out / --slo-p99-s). */
    std::unique_ptr<RunTelemetry> telemetry;

    /**
     * Validate the parsed --slo-p99-s spec and flip on whatever the
     * flags ask for: the metrics registry, the profiler, the trace sink
     * (--trace-out) and the telemetry bundle (--timeseries-out /
     * --slo-p99-s). False means a clear message already went to stderr
     * and the tool should exit non-zero. Call once, after argument
     * parsing (which probes the output paths, see probeWritable),
     * before the simulation.
     */
    bool activate();

    /**
     * Emit everything that was collected: metrics JSON to
     * `metricsOut`, trace JSON to `traceOut`, the timeseries document
     * to `timeseriesOut` (CSV when the path ends in .csv, JSON
     * otherwise), the SLO attainment summary and the profile table to
     * stderr. Returns false (with a DIVA_WARN naming the file) if
     * any requested output could not be written.
     */
    bool finish();
};

/**
 * Fail fast on an unwritable output path: a tool checks every path it
 * will write before a long run, not after it. Opens in append mode (an
 * existing file is never truncated) and removes the file again if the
 * probe created it. False after "error: FLAG path 'PATH' is not
 * writable" on stderr; an empty path passes.
 */
bool probeWritable(const std::string &path, const std::string &flag);

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_CLI_H
