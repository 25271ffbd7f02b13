/**
 * @file
 * Measurement plumbing of the repository benchmark: order statistics
 * over repeated timings, an output sink that hashes bytes instead of
 * storing them, process probes (CPU time, heap in use, peak RSS), and
 * the span recorder the traced run keeps in memory.
 *
 * Spans are recorded only by the benchmark's own code, around its
 * calls into the library; the library's obs::Profiler phases are
 * folded in under the call that produced them. Nothing here is used
 * on an untraced run except the sink and the quartiles.
 */

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** First quartile, median and third quartile of a sample. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the rule of Python's statistics.quantiles(values, n=4)
 * (the default "exclusive" method), so the spread the benchmark
 * reports is the spread its consumers compute. A single value is its
 * own quartiles; an empty sample yields zeros.
 */
Quartiles quartiles(std::vector<double> values);

/**
 * A stream buffer that keeps nothing: every byte written is counted
 * and folded into a 64-bit digest. Bytes are hashed in fixed 64 KiB
 * blocks counted from the start of the stream, so the digest depends
 * only on the byte sequence, never on how writers split or flushed
 * it.
 */
class HashSink : public std::streambuf
{
  public:
    HashSink();

    HashSink(const HashSink &) = delete;
    HashSink &operator=(const HashSink &) = delete;

    /** Bytes written so far. */
    std::uint64_t bytes() const;

    /** Digest of every byte written so far (the sink stays usable). */
    std::uint64_t digest() const;

    /** An ostream writing into this sink. */
    std::ostream &stream() { return os_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    static constexpr std::size_t kBlock = 64 * 1024;

    void absorbBlock();

    std::vector<char> buf_;
    std::uint64_t state_;
    std::uint64_t absorbed_ = 0;
    std::ostream os_;
};

/** Process CPU time (user + system, all threads) in seconds. */
double processCpuSeconds();

/** Heap bytes currently allocated through malloc (all arenas). */
double heapBytesInUse();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * One pass of the benchmark's own reference task, in seconds: it
 * formats 12000 records as CSV text with snprintf, parses them back
 * with strtod, sorts the values and bins them. That is the kind of
 * work the library's parse, format and sort paths do, so a host that
 * slows the library slows it alike; but it runs no library code and
 * allocates nothing after the first call, so no library change moves
 * it. Runs on the calling thread.
 */
double referencePassSeconds();

/**
 * A reference pass takes this long on the host the benchmark was
 * tuned on (4-vCPU x86-64 VM, median over quiet runs); times are
 * reported at that host speed.
 */
constexpr double kReferencePassSec = 0.02;

/** The stack layers a span is attributed to (see README.md). */
enum class Layer
{
    kBench,     ///< the benchmark's own loop and output checks
    kArrivals,  ///< trace generation, parsing, admission
    kCostModel, ///< backend + train + sim + gemm + ppu + mem + energy
    kSweep,     ///< sweep runner, aggregate, emit
    kServeCore, ///< the event-driven serve core
    kTenant,    ///< single-accelerator serve loop and its emitters
    kFleet,     ///< placement, epochs, migration, assembly, emit
    kObs,       ///< windowed telemetry, SLO monitor, timeseries
};

/** Every layer, in reporting order. */
const std::vector<Layer> &allLayers();

/** Metric-name spelling of a layer ("cost_model", "serve_core", ...). */
const char *layerName(Layer layer);

/** One recorded interval; `parent` indexes the enclosing span or -1. */
struct Span
{
    std::string name;
    Layer layer = Layer::kBench;
    double start = 0.0; ///< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;
};

/**
 * In-memory span recorder for the traced run. Spans nest by call
 * order: a span opened while another is open becomes its child.
 * Written out once, at the end, as a Chrome/Perfetto trace document.
 */
class Tracer
{
  public:
    Tracer();

    /** Open a span now, under the innermost open span. */
    int open(std::string name, Layer layer);

    /** Close span `id` (the innermost open one); returns its length. */
    double close(int id);

    /**
     * Attach obs::Profiler phases, accumulated during span `id`, as
     * its children. Known phases nest as the library nests them
     * (fleet_run > placement/epoch_serve/fleet_controls, ...) and map
     * to their layer; unknown phases hang directly under `id` in its
     * layer. Each child is laid out from its parent's start and
     * clipped to the parent's interval: phases summed over worker
     * threads can exceed the wall time they ran in.
     */
    void foldPhases(int id,
                    const std::map<std::string,
                                   diva::obs::Profiler::Phase> &phases);

    const std::vector<Span> &spans() const { return spans_; }

    /** Add a fully specified span (tests, synthetic children). */
    int add(Span span);

    /**
     * Self time per layer, summed over every span below the root spans
     * named `root` recorded at index `first` or later: a span's length
     * minus the part of it its children cover.
     */
    std::map<Layer, double> selfTimes(const std::string &root,
                                      std::size_t first = 0) const;

    /** Chrome trace-event JSON (complete "X" events, microseconds). */
    void writeJson(std::ostream &os) const;

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Opens a span on construction and closes it on destruction, or does
 * nothing (no clock reads) when the tracer is null. With `foldProfile`
 * the obs::Profiler is reset at open and its phases are folded in at
 * close; the caller enables the profiler for traced iterations only.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, Layer layer,
               bool foldProfile = false);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close now (idempotent); returns the span's length, 0 untraced. */
    double close();

  private:
    Tracer *tracer_;
    int id_ = -1;
    bool fold_;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
