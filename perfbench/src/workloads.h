/**
 * @file
 * The four benchmark workloads. Each builds its inputs from a seed
 * (set-up), then runs iterations that start from those inputs and end
 * at the last emitted byte, calling only the library's public
 * functions. Emitted bytes go to a HashSink, so disk speed is never
 * measured. README.md says why each workload exists and which layer
 * it loads.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "measure.h"

namespace perfbench
{

/** Seed a bare invocation uses. */
constexpr std::uint64_t kDefaultSeed = 1;

using Metrics = std::map<std::string, double>;

/** What one iteration did, besides how long it took. */
struct Iteration
{
    /** Work units completed (sessions, session-policies, scenarios). */
    double items = 0.0;

    /** Operations attempted (fleet runs, replays, scenarios). */
    std::size_t attempted = 0;

    /** Operations that returned an error. */
    std::size_t errored = 0;

    /** Failed output checks; any one fails the whole iteration. */
    Problems problems;

    /** Digest of every byte the iteration emitted. */
    std::uint64_t digest = 0;

    /** Counts that must repeat exactly in every iteration. */
    Metrics counts;

    /** Per-layer metrics; filled by traced iterations only. */
    Metrics layer;
};

/** The timed part of one iteration: inputs handed over to last byte. */
struct Stopwatch
{
    Clock::time_point started;
    Clock::time_point stopped;

    void start() { started = Clock::now(); }
    void stop() { stopped = Clock::now(); }
    double seconds() const { return secondsBetween(started, stopped); }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One line stating the input size and what an item is. */
    virtual std::string describe() const = 0;

    /**
     * Build the inputs for `seed`, replacing earlier ones. Set-up
     * phases worth attributing land in `layer` (e.g. trace
     * generation time).
     */
    virtual void setup(std::uint64_t seed, Metrics *layer) = 0;

    /**
     * Run one iteration on the inputs. `sw` brackets the timed part;
     * work before start() (a fresh runner) and after stop() (checks,
     * attribution re-runs) is not timed. A non-null `tracer` records
     * spans and fills Iteration::layer.
     */
    virtual Iteration run(Tracer *tracer, Stopwatch &sw) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A workload by name (nullptr if unknown); `threads` >= 1. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       int threads);

/** Per-layer metric name -> unit; every traced run prints them all. */
const std::map<std::string, std::string> &perLayerCatalogue();

/**
 * The sweep_cold axes for one seed: one input scale and one batch
 * drawn from each stratum (every value is valid for every zoo model
 * on one chip and on the 4- and 8-chip pods), and the fixed
 * micro-batch axis. Narrow strata keep the cost and memory of a
 * sweep about the same from seed to seed.
 */
struct SweepAxes
{
    std::vector<int> scales;
    std::vector<int> batches;
    std::vector<int> microbatches;
};
SweepAxes drawSweepAxes(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
