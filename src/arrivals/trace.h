/**
 * @file
 * Arrival-trace representation for open-loop serve replay: an ordered
 * stream of tenant sessions, each a TenantJob template plus its
 * arrival (and optional departure) time. Traces come from three
 * sources -- recorded CSV files, recorded JSONL files, and the seeded
 * deterministic generators in arrivals/generate.h -- and all three
 * produce the same in-memory form, so the replay engine and the
 * emitters never care where a trace came from.
 *
 * The canonical on-disk CSV form round-trips: writeTraceCsv followed
 * by loadTraceCsv reproduces the trace exactly (doubles go through
 * the shared shortest-round-trip formatter), which is what makes
 * "same seed => byte-identical trace" a testable property.
 */

#ifndef DIVA_ARRIVALS_TRACE_H
#define DIVA_ARRIVALS_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "tenant/tenant.h"

namespace diva
{

/** One replayable arrival stream. */
struct ArrivalTrace
{
    /** Trace label used in reports, e.g. "poisson-r2-s7". */
    std::string name;

    /**
     * Tenant sessions in trace order (ascending arrivalSec; ties keep
     * input order). Each job's arrivalSec/departSec are the session's
     * lifetime; steps 0 means the session trains until departure.
     */
    std::vector<TenantJob> jobs;

    /**
     * First problem found (empty trace, unsorted arrivals, malformed
     * job), or "". `wallLimited` tells whether the replay bounds
     * wall-clock time; unbounded-step sessions need a departure or a
     * wall budget to terminate.
     */
    std::string validationError(bool wallLimited) const;

    /** The trace as a serve workload (name + jobs, shared types). */
    TenantWorkload workload() const;
};

/**
 * Name of the index-th session when its source gives none:
 * "a<index>:<model>". The generators and both loaders use it.
 */
std::string sessionName(std::size_t index, const std::string &model);

/** Header of the canonical trace CSV. */
std::string traceCsvHeader();

/** Write `trace` in the canonical CSV form (header + one row/job). */
void writeTraceCsv(std::ostream &os, const ArrivalTrace &trace);

/**
 * Parse a trace from CSV. The header row is required and columns may
 * appear in any order; unknown columns are rejected. On failure
 * returns an empty trace and sets *error to a "line N: ..." message.
 */
ArrivalTrace loadTraceCsv(std::istream &is, std::string *error);

/**
 * Parse a trace from JSONL: one flat JSON object per line with the
 * same keys as the CSV columns (unknown keys are ignored, so traces
 * recorded with extra metadata still load). Blank lines are skipped.
 */
ArrivalTrace loadTraceJsonl(std::istream &is, std::string *error);

/**
 * Load a trace file, dispatching on extension: ".jsonl"/".json" use
 * the JSONL loader, anything else the CSV loader. The trace name
 * defaults to the file's basename when the file does not set one.
 */
ArrivalTrace loadTraceFile(const std::string &path, std::string *error);

} // namespace diva

#endif // DIVA_ARRIVALS_TRACE_H
