/**
 * @file
 * Deterministic CSV and JSON emitters for sweep reports. Output is a
 * pure function of the results (no timestamps, no wall-clock), so a
 * parallel sweep emits bytes identical to a serial one.
 */

#ifndef DIVA_SWEEP_EMIT_H
#define DIVA_SWEEP_EMIT_H

#include <ostream>
#include <string>

#include "common/format.h"
#include "sweep/runner.h"

namespace diva
{

/** Header matching appendCsvRow()'s columns. */
std::string csvHeader();

/** Append one RFC-4180 CSV data row (newline included) for one result;
 *  writeCsv emits every row through it. */
void appendCsvRow(std::string &out, const ScenarioResult &r);

/** Emit header + one row per result. */
void writeCsv(std::ostream &os, const SweepReport &report);

/**
 * Emit the report's results as JSON. Like the CSV, the output is a
 * pure function of the scenario list (cache accounting is deliberately
 * excluded so reruns against a warm disk cache emit identical bytes).
 */
void writeJson(std::ostream &os, const SweepReport &report);

// formatDouble / jsonNumber / csvCell / jsonEscape moved to
// common/format.h (shared with the serve and trace emitters); the
// include above keeps existing callers of this header compiling.

} // namespace diva

#endif // DIVA_SWEEP_EMIT_H
