/**
 * @file
 * One table-driven flag spec for the tools/ CLIs (diva_sweep,
 * diva_serve, diva_fleet).
 *
 * Every flag is one `Flag` entry: its spelling, metavar, help text and
 * a setter that parses the value -- with its kind's bounds -- into the
 * tool's Args. `Spec::parse` walks argv against the table, probes every
 * output path for writability and checks the cross-flag rules before
 * any simulation runs; `Spec::usage` generates --help from the same
 * entries. Errors are one line on stderr, "tool: message", and the tool
 * exits 1. The groups the tools share (trace input, serving knobs,
 * execution, output, observability) are defined once below, together
 * with the two helpers every tool needs after parsing: resolving the
 * replayed trace and writing an output file (or stdout); guardedMain
 * is every tool's last-resort exception handler.
 */

#ifndef DIVA_TOOLS_CLI_PARSE_H
#define DIVA_TOOLS_CLI_PARSE_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/accelerator_config.h"
#include "arrivals/generate.h"
#include "arrivals/trace.h"
#include "backend/registry.h"
#include "common/logging.h"
#include "common/parse.h"
#include "obs/cli.h"
#include "sweep/disk_cache.h"
#include "tenant/scheduler.h"

namespace diva::cli
{

/**
 * A tool's main behind one last-resort handler: an exception nothing
 * below caught -- e.g. a DIVA_FATAL outside a scenario, which prints
 * nothing itself -- goes to stderr and the tool exits 1 instead of
 * aborting.
 */
inline int
guardedMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}

/** Split a comma-separated list, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

// ------------------------------------------------------------ value kinds

/** Parses `text` (the value of `flag`) into `out`: "" on success, else
 *  the complete error message. `out` is only written on success. */
template <class T>
using Kind = std::function<std::string(const std::string &flag,
                                       const std::string &text, T &out)>;

/** An integer >= `min` that fits T. */
template <class T>
Kind<T>
integer(long long min = std::numeric_limits<T>::min())
{
    return [min](const std::string &flag, const std::string &text,
                 T &out) -> std::string {
        const std::optional<long long> v = parseIntText(text);
        if (!v)
            return flag + " expects an integer, got '" + text + "'";
        if (*v < min)
            return flag + " must be >= " + std::to_string(min) +
                   ", got '" + text + "'";
        if (std::cmp_greater(*v, std::numeric_limits<T>::max()))
            return flag + " is out of range, got '" + text + "'";
        out = T(*v);
        return "";
    };
}

/** A finite double satisfying `ok`, described to the user as `rule`. */
inline Kind<double>
real(const char *rule, bool (*ok)(double))
{
    return [rule, ok](const std::string &flag, const std::string &text,
                      double &out) -> std::string {
        const std::optional<double> v = parseDoubleText(text);
        if (!v || !ok(*v))
            return flag + " must be " + rule + ", got '" + text + "'";
        out = *v;
        return "";
    };
}

inline Kind<double>
positive()
{
    return real("> 0", [](double v) { return v > 0.0; });
}

inline Kind<double>
nonNegative()
{
    return real(">= 0", [](double v) { return v >= 0.0; });
}

inline Kind<double>
fraction()
{
    return real("in (0, 1]", [](double v) { return v > 0.0 && v <= 1.0; });
}

/** One of a fixed set of names, resolved by `fromName` (any callable
 *  returning std::optional<T>); `what`/`choices` word the error. */
template <class F>
auto
named(F fromName, std::string what, std::string choices)
{
    using T = typename std::invoke_result_t<F, const std::string &>::
        value_type;
    return Kind<T>([fromName, what, choices](const std::string &,
                                             const std::string &text,
                                             T &out) -> std::string {
        const std::optional<T> v = fromName(text);
        if (!v)
            return "unknown " + what + " '" + text + "' (want " +
                   choices + ")";
        out = *v;
        return "";
    });
}

/** `kind`, or the literal "auto" meaning `autoValue`. */
template <class T>
Kind<T>
orAuto(T autoValue, Kind<T> kind)
{
    return [autoValue, kind](const std::string &flag,
                             const std::string &text, T &out) {
        if (text != "auto")
            return kind(flag, text, out);
        out = autoValue;
        return std::string();
    };
}

inline Kind<Dataflow>
dataflowKind()
{
    auto fromName = [](const std::string &name) -> std::optional<Dataflow> {
        for (Dataflow df : {Dataflow::kWeightStationary,
                            Dataflow::kOutputStationary,
                            Dataflow::kOuterProduct})
            if (name == dataflowName(df))
                return df;
        return std::nullopt;
    };
    return named(fromName, "dataflow", "WS, OS, or DiVa");
}

inline Kind<bool>
onOffKind()
{
    auto fromName = [](const std::string &name) -> std::optional<bool> {
        if (name == "on" || name == "off")
            return name == "on";
        return std::nullopt;
    };
    return named(fromName, "--ppu value", "on or off");
}

inline Kind<SchedPolicy>
policyKind()
{
    return named(policyFromName, "policy", "fifo, rr, prio, or edf");
}

// ------------------------------------------------------------ flag table

/** Print "tool: msg" to stderr; always false. */
inline bool
fail(const std::string &tool, const std::string &msg)
{
    std::cerr << tool << ": " << msg << "\n";
    return false;
}

struct Flag
{
    std::string name;    ///< "--threads"
    std::string metavar; ///< "N"; empty for a switch (takes no value)
    std::string help;    ///< one paragraph; --help word-wraps it
    /** Store the value (switches get ""): "" on success, else the
     *  error message. */
    std::function<std::string(const std::string &value)> set;
    /** Output path: probed for writability once parsing ends. */
    const std::string *outPath = nullptr;
};

/** A single value of `kind` stored in `dst`. */
template <class T>
Flag
value(std::string name, std::string metavar, std::string help, T &dst,
      std::type_identity_t<Kind<T>> kind)
{
    return {name, std::move(metavar), std::move(help),
            [name, &dst, kind](const std::string &v) {
                return kind(name, v, dst);
            }};
}

/**
 * A comma-separated list of `kind` values. It replaces the default and
 * must name at least one item -- unless `append`: then repeated flags
 * accumulate and an empty list adds nothing.
 */
template <class T>
Flag
list(std::string name, std::string metavar, std::string help,
     std::vector<T> &dst, std::type_identity_t<Kind<T>> kind,
     bool append = false)
{
    return {name, std::move(metavar), std::move(help),
            [name, &dst, kind, append](const std::string &v) {
                std::vector<T> items;
                for (const std::string &s : splitList(v)) {
                    T item{};
                    std::string err = kind(name, s, item);
                    if (!err.empty())
                        return err;
                    items.push_back(item);
                }
                if (!append && items.empty())
                    return name + " needs at least one value";
                if (!append)
                    dst.clear();
                dst.insert(dst.end(), items.begin(), items.end());
                return std::string();
            }};
}

inline Flag
text(std::string name, std::string metavar, std::string help,
     std::string &dst)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [&dst](const std::string &v) {
                dst = v;
                return std::string();
            }};
}

/** A path the tool writes: probed for writability before the run. */
inline Flag
output(std::string name, std::string metavar, std::string help,
       std::string &dst)
{
    Flag f = text(std::move(name), std::move(metavar), std::move(help),
                  dst);
    f.outPath = &dst;
    return f;
}

/** A switch: sets `dst` to `on`. */
inline Flag
toggle(std::string name, std::string help, bool &dst, bool on = true)
{
    return {std::move(name), "", std::move(help),
            [&dst, on](const std::string &) {
                dst = on;
                return std::string();
            }};
}

/** A --policies-style list; "all" = every policy when `all` is set. */
inline Flag
policyList(std::string name, std::string help,
           std::vector<SchedPolicy> &dst, bool all)
{
    Flag f = list(std::move(name), "LIST", std::move(help), dst,
                  policyKind());
    if (all)
        f.set = [set = f.set, &dst](const std::string &v) {
            if (v != "all")
                return set(v);
            dst = allPolicies();
            return std::string();
        };
    return f;
}

/** One tool's flags, in --help order, plus its cross-flag rules. */
class Spec
{
  public:
    explicit Spec(std::string tool) : tool_(std::move(tool)) {}

    /** Start a --help section; flags added after it list under it. */
    Spec &
    section(std::string title)
    {
        sections_.push_back({std::move(title), {}});
        return *this;
    }

    Spec &
    add(Flag flag)
    {
        sections_.back().second.push_back(std::move(flag));
        return *this;
    }

    /** A rule over several flags, checked after the last one: "" when
     *  it holds, else the error message. */
    Spec &
    rule(std::function<std::string()> check)
    {
        rules_.push_back(std::move(check));
        return *this;
    }

    /**
     * Parse argv into the flags' destinations, then check the rules and
     * probe the output paths. --help / -h prints the usage and exits 0.
     * False after a one-line error on stderr.
     */
    bool
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                usage(std::cerr);
                std::exit(0);
            }
            const Flag *flag = find(a);
            if (!flag) {
                fail(tool_, "unknown option '" + a + "'");
                usage(std::cerr);
                return false;
            }
            std::string v;
            if (!flag->metavar.empty()) {
                if (i + 1 >= argc)
                    return fail(tool_, a + " needs a value");
                v = argv[++i];
            }
            if (const std::string err = flag->set(v); !err.empty())
                return fail(tool_, err);
        }
        for (const auto &check : rules_)
            if (const std::string err = check(); !err.empty())
                return fail(tool_, err);
        for (const auto &[title, flags] : sections_)
            for (const Flag &f : flags)
                if (f.outPath && !obs::probeWritable(*f.outPath, f.name))
                    return false;
        return true;
    }

    /** The generated --help text. */
    void
    usage(std::ostream &os) const
    {
        constexpr std::size_t kColumn = 22, kWidth = 72;
        os << "usage: " << tool_ << " [options]\n";
        for (const auto &[title, flags] : sections_) {
            os << "\n" << title << ":\n";
            for (const Flag &f : flags) {
                std::string line = "  " + f.name;
                if (!f.metavar.empty())
                    line += " " + f.metavar;
                line += line.size() < kColumn
                            ? std::string(kColumn - line.size(), ' ')
                            : "  ";
                bool fresh = true; // no word on this line yet
                std::istringstream words(f.help);
                for (std::string w; words >> w; fresh = false) {
                    if (!fresh && line.size() + 1 + w.size() > kWidth) {
                        os << line << "\n";
                        line.assign(kColumn, ' ');
                        fresh = true;
                    }
                    line += (fresh ? "" : " ") + w;
                }
                os << line << "\n";
            }
        }
    }

  private:
    const Flag *
    find(const std::string &name) const
    {
        for (const auto &[title, flags] : sections_)
            for (const Flag &f : flags)
                if (f.name == name)
                    return &f;
        return nullptr;
    }

    std::string tool_;
    std::vector<std::pair<std::string, std::vector<Flag>>> sections_;
    std::vector<std::function<std::string()>> rules_;
};

// ----------------------------------------------------------- shared groups

/** --arrivals / --trace / --save-trace: the arrival stream to replay. */
struct TraceInput
{
    std::string arrivalsSpec;
    std::string tracePath;
    std::string saveTracePath;

    bool any() const { return !arrivalsSpec.empty() || !tracePath.empty(); }
};

/** Add the trace-input flags to the current section (--save-trace
 *  only if `saveTrace`); `arrivalsDefault` notes the generator used
 *  without either flag. */
inline void
addTraceInput(Spec &spec, TraceInput &in, bool saveTrace,
              const std::string &arrivalsDefault = "")
{
    spec.add(text("--arrivals", "SPEC",
                  "generate a seeded arrival trace from kind[:key=val,...]"
                  ": kind is poisson, onoff or diurnal; keys are rate, "
                  "horizon, seed, cap, on, off, peak, steps, batch, qos, "
                  "hold and prios (e.g. poisson:rate=4,seed=7,hold=2)" +
                      arrivalsDefault,
                  in.arrivalsSpec))
        .add(text("--trace", "FILE",
                  "replay a recorded trace (.csv, or .jsonl/.json with "
                  "one object per line)",
                  in.tracePath))
        .rule([&in] {
            return !in.arrivalsSpec.empty() && !in.tracePath.empty()
                       ? "--arrivals and --trace are mutually exclusive"
                       : "";
        });
    if (saveTrace)
        spec.add(output("--save-trace", "PATH",
                        "write the replayed trace as canonical CSV (seeded "
                        "generators: same seed => byte-identical file)",
                        in.saveTracePath));
}

/**
 * Open `path` for writing and hand the stream to `emit`; an empty path
 * means stdout when `orStdout`, else nothing to write. False after
 * "tool: cannot write PATH".
 */
inline bool
emitTo(const std::string &tool, const std::string &path, bool orStdout,
       const std::function<void(std::ostream &)> &emit)
{
    if (path.empty()) {
        if (orStdout)
            emit(std::cout);
        return true;
    }
    std::ofstream file(path);
    if (!file)
        return fail(tool, "cannot write " + path);
    emit(file);
    return true;
}

/**
 * The trace a replay serves: --trace loaded from disk, else the
 * --arrivals generator (or `fallbackSpec` when neither flag was given)
 * run after `tune` adjusts the parsed spec; then written to
 * --save-trace. nullopt after a "tool: ..." error on stderr.
 */
inline std::optional<ArrivalTrace>
resolveTrace(const std::string &tool, const TraceInput &in,
             const std::function<void(TraceGenSpec &)> &tune = {},
             const std::string &fallbackSpec = "")
{
    std::string err;
    ArrivalTrace trace;
    if (!in.tracePath.empty()) {
        trace = loadTraceFile(in.tracePath, &err);
        if (!err.empty()) {
            fail(tool, "--trace: " + err);
            return std::nullopt;
        }
    } else {
        std::optional<TraceGenSpec> gen = parseTraceGenSpec(
            in.arrivalsSpec.empty() ? fallbackSpec : in.arrivalsSpec,
            &err);
        if (!gen) {
            fail(tool, "--arrivals: " + err);
            return std::nullopt;
        }
        if (tune)
            tune(*gen);
        trace = generateTrace(*gen);
        if (trace.jobs.empty()) {
            fail(tool, "--arrivals produced no arrivals inside the "
                       "horizon; raise rate or horizon");
            return std::nullopt;
        }
    }
    if (!emitTo(tool, in.saveTracePath, false,
                [&](std::ostream &os) { writeTraceCsv(os, trace); }))
        return std::nullopt;
    return trace;
}

/** --quantum / --wall-s / --admission-cap. */
struct Serving
{
    std::uint64_t quantum = 1;
    double wallSec = 0.0; ///< 0 = run to completion
    double admissionCap = 1.0;
};

/** Add the serving flags to the current section. */
inline void
addServing(Spec &spec, Serving &s)
{
    spec.add(value("--quantum", "N",
                   "iterations per scheduling quantum (default 1)",
                   s.quantum, integer<std::uint64_t>(1)))
        .add(value("--wall-s", "S",
                   "wall-clock budget in simulated seconds; omit to run "
                   "to completion",
                   s.wallSec, positive()))
        .add(value("--admission-cap", "U",
                   "utilization of one chip or pod the admitted QoS "
                   "demand may claim (default 1.0); sessions past it "
                   "are rejected",
                   s.admissionCap, positive()));
}

/** --backends / --threads / --cache-dir / --cache / --quiet /
 *  --verbose. */
struct Execution
{
    std::vector<std::string> backends; ///< empty = the tool's default
    int threads = 1;
    std::string cacheDir;
    bool quiet = false;
};

/** Add the execution flags under their own section; `minThreads`
 *  bounds --threads. */
inline void
addExecution(Spec &spec, Execution &e, const std::string &backendsHelp,
             int minThreads = 1)
{
    spec.section("Execution")
        .add({"--backends", "LIST", backendsHelp,
              [&e](const std::string &v) -> std::string {
                  std::vector<std::string> names;
                  for (const std::string &name : splitList(v)) {
                      if (!BackendRegistry::instance().find(name)) {
                          std::string known;
                          for (const std::string &n :
                               BackendRegistry::instance().names())
                              known += (known.empty() ? "" : ", ") + n;
                          return "unknown backend '" + name +
                                 "' (registered: " + known + ")";
                      }
                      if (std::find(names.begin(), names.end(), name) ==
                          names.end())
                          names.push_back(name);
                  }
                  if (names.empty())
                      return "--backends needs at least one name";
                  e.backends = names;
                  return "";
              }})
        .add(value("--threads", "N",
                   "worker threads (default 1; output is byte-identical "
                   "for any value)",
                   e.threads, integer<int>(minThreads)))
        .add(text("--cache-dir", "PATH",
                  "persistent result cache shared by all three tools: "
                  "scenarios simulated by earlier invocations are served "
                  "from disk",
                  e.cacheDir))
        .add({"--cache", "",
              "like --cache-dir with the default dir ($DIVA_CACHE_DIR, "
              "else ~/.cache/diva)",
              [&e](const std::string &) {
                  e.cacheDir = DiskCache::defaultDir();
                  return std::string();
              }})
        .add(toggle("--quiet", "no stderr progress", e.quiet))
        .add({"--verbose", "", "extra stderr progress notes",
              [](const std::string &) {
                  setLogVerbosity(LogVerbosity::kVerbose);
                  return std::string();
              }});
}

/** --csv / --json / --no-summary. */
struct Output
{
    std::string csvPath;
    std::string jsonPath;
    bool summary = true;
};

/** Add the output flags under their own section; tools append their
 *  extra output flags after it. */
inline void
addOutput(Spec &spec, Output &out, const std::string &csvHelp,
          bool noSummary)
{
    spec.section("Output (deterministic; independent of --threads and "
                 "cache)")
        .add(output("--csv", "PATH", csvHelp, out.csvPath))
        .add(output("--json", "PATH", "also write a JSON report",
                    out.jsonPath));
    if (noSummary)
        spec.add(toggle("--no-summary", "skip the stdout summary tables",
                        out.summary, false));
}

/** Add the obs::CliObs flags under their own section. */
inline void
addObs(Spec &spec, obs::CliObs &o)
{
    spec.section("Observability (all optional; no effect on results)")
        .add(output("--metrics-out", "FILE",
                    "write a deterministic counters/gauges/histograms "
                    "snapshot (JSON)",
                    o.metricsOut))
        .add(output("--trace-out", "FILE",
                    "write a sim-time Chrome/Perfetto trace (JSON; open "
                    "in ui.perfetto.dev)",
                    o.traceOut))
        .add(value("--trace-max-events", "N",
                   "per-track event cap for --trace-out (default "
                   "1048576; excess is counted as droppedEvents)",
                   o.traceMaxEvents, integer<std::size_t>(1)))
        .add(output("--timeseries-out", "FILE",
                    "write windowed sim-time telemetry "
                    "(diva-timeseries-v1; CSV when FILE ends in .csv, "
                    "JSON otherwise)",
                    o.timeseriesOut))
        .add(value("--obs-window-s", "W",
                   "telemetry window width in simulated seconds "
                   "(default: trace span / 64)",
                   o.obsWindowSec, positive()))
        .add(text("--slo-p99-s", "SPEC",
                  "p99 step-latency target: seconds (global) and/or "
                  "prio:seconds pairs, comma-separated (e.g. \"0.5,1:0.2\"); "
                  "enables the per-window attainment report",
                  o.sloSpecText))
        .add(toggle("--profile", "wall-clock phase table on stderr",
                    o.profile));
}

} // namespace diva::cli

#endif // DIVA_TOOLS_CLI_PARSE_H
