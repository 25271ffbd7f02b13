/**
 * @file
 * perfbench: the repository benchmark program. Runs one named workload
 * from a seed for a fixed measuring time and prints, as its last
 * stdout line, one JSON object with the end-to-end metrics (untraced
 * run) or the per-layer metrics (--trace 1). Every iteration's
 * outputs are checked; any failed check makes the exit code 1.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans-out FILE]
 *
 * The multi-threaded workloads use min(4, cores) workers.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "common/format.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

/** Iterations measured at least, whatever --seconds says. */
constexpr int kMinIterations = 3;

/**
 * Set-up repeats: at least this many, and about this share of the
 * measuring time. They are spread over the measuring time: one runs
 * before an iteration whenever the set-ups so far fall behind either
 * target prorated to the time spent.
 */
constexpr int kMinSetups = 7;
constexpr double kSetupShare = 0.2;

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return false;
        const std::string a = argv[i];
        const std::string v = argv[i + 1];
        try {
            if (a == "--workload")
                args->workload = v;
            else if (a == "--seed")
                args->seed = std::stoull(v);
            else if (a == "--seconds")
                args->seconds = std::stod(v);
            else if (a == "--trace")
                args->trace = std::stoi(v) != 0;
            else if (a == "--spans-out")
                args->spansOut = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !args->workload.empty() && args->seconds > 0.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

double
median(const std::vector<double> &values)
{
    return quartiles(values).median;
}

/** "what: median .. s (q1 .., q3 .., n ..)" plus each value. */
void
report(const char *what, const std::vector<double> &values)
{
    const Quartiles q = quartiles(values);
    std::cout << what << ": median " << diva::formatDouble(q.median)
              << " s (q1 " << diva::formatDouble(q.q1) << ", q3 "
              << diva::formatDouble(q.q3) << ", n " << values.size()
              << ")\n  each:";
    for (double v : values)
        std::cout << " " << diva::formatDouble(std::round(v * 1e5) / 1e5);
    std::cout << "\n";
}

/** Folds iterations into the run's tallies and consistency checks. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double items = 0.0;
    bool haveDigest = false;
    std::uint64_t digest = 0;
    CountLedger counts;
    std::vector<std::string> problems;

    void
    add(Iteration &it)
    {
        if (!haveDigest) {
            digest = it.digest;
            haveDigest = true;
        } else if (it.digest != digest) {
            it.problems.push_back("output digest " + hex(it.digest) +
                                  " differs from the first iteration's " +
                                  hex(digest));
        }
        for (std::string &p : counts.record(it.counts))
            it.problems.push_back(std::move(p));
        items = it.items;
        attempted += it.attempted;
        failed += it.problems.empty() ? it.errored : it.attempted;
        for (const std::string &p : it.problems)
            if (problems.size() < 20)
                problems.push_back(p);
    }
};

/** Metric name -> (value, unit), in print order. */
using Result =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void
printResult(bool correct, const Tally &tally, const Result &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, vu] = metrics[i];
        char num[32];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        std::cout << (i ? ", " : "") << "\"" << name
                  << "\": {\"value\": " << num << ", \"unit\": \""
                  << vu.second << "\"}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage("bad arguments");
    const int threads =
        int(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, threads);
    if (!workload)
        return usage("unknown workload '" + args.workload + "'");

    // Set-up is timed every time it runs; the inputs of the last
    // repeat are the ones the next iterations use. A reference pass
    // runs right before each set-up and each iteration, so the passes
    // sample the host's speed when and where the timed work ran.
    std::vector<double> setupTimes;
    std::vector<double> referenceTimes;
    double setupSpent = 0.0;
    std::map<std::string, std::vector<double>> setupLayer;
    const auto setUp = [&]() {
        referenceTimes.push_back(referencePassSeconds());
        Metrics layer;
        const Clock::time_point t0 = Clock::now();
        try {
            workload->setup(args.seed, &layer);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
            return false;
        }
        setupTimes.push_back(secondsBetween(t0, Clock::now()));
        setupSpent += setupTimes.back();
        for (const auto &[name, v] : layer)
            setupLayer[name].push_back(v);
        return true;
    };
    if (!setUp())
        return 1;
    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ": " << workload->describe() << "\n";

    // One untimed warm-up (pool threads, allocator), checked like the
    // rest; then iterations until the measuring time is spent, with
    // set-up repeats spread among them, so both sample the host over
    // the whole run. A traced run alternates untraced and traced
    // iterations, so the tracing overhead is measured in the same
    // conditions.
    Tally tally;
    Tracer tracer;
    std::vector<double> plain, traced;
    std::map<std::string, std::vector<double>> layer;
    CountLedger layerCounts;
    auto &profiler = diva::obs::Profiler::instance();
    {
        Stopwatch sw;
        Iteration it = workload->run(nullptr, sw);
        tally.add(it);
    }
    // What one run of the workload needs: later iterations only add
    // allocator fragmentation, which grows with their number.
    const double peakRss = peakRssMb();
    const Clock::time_point begin = Clock::now();
    for (int i = 0;; ++i) {
        const double spent = secondsBetween(begin, Clock::now());
        if ((setupSpent < kSetupShare * spent ||
             double(setupTimes.size()) <
                 1.0 + (kMinSetups - 1) * spent / args.seconds) &&
            !setUp())
            return 1;
        const bool tracedIter = args.trace && i % 2 == 1;
        const std::size_t firstSpan = tracer.spans().size();
        referenceTimes.push_back(referencePassSeconds());
        Stopwatch sw;
        profiler.enable(tracedIter);
        Iteration it = workload->run(tracedIter ? &tracer : nullptr, sw);
        profiler.enable(false);
        (tracedIter ? traced : plain).push_back(sw.seconds());
        if (tracedIter) {
            const auto self = tracer.selfTimes("iteration", firstSpan);
            for (Layer l : allLayers())
                it.layer[std::string("self_s.") + layerName(l)] =
                    self.count(l) ? self.at(l) : 0.0;
            Metrics exact;
            for (const auto &[name, v] : it.layer) {
                const auto unit = perLayerCatalogue().find(name);
                if (unit == perLayerCatalogue().end())
                    it.problems.push_back("unlisted layer metric " + name);
                else if (unit->second == "count" || unit->second == "B")
                    exact[name] = v;
                layer[name].push_back(v);
            }
            for (std::string &p : layerCounts.record(exact))
                it.problems.push_back(std::move(p));
        }
        tally.add(it);
        const bool enough =
            int(plain.size()) >= kMinIterations &&
            (!args.trace || int(traced.size()) >= kMinIterations);
        if (enough && secondsBetween(begin, Clock::now()) >= args.seconds)
            break;
    }

    while (int(setupTimes.size()) < kMinSetups)
        if (!setUp())
            return 1;

    // How much slower than the reference host this host ran: wall
    // times are divided by it before they are reported.
    const double slowdown = median(referenceTimes) / kReferencePassSec;
    report("setup_s", setupTimes);
    report("iteration_s", plain);
    report("reference pass", referenceTimes);
    std::cout << "host slowdown " << diva::formatDouble(slowdown)
              << " (reference pass median over "
              << diva::formatDouble(kReferencePassSec) << " s)\n";
    if (args.trace)
        report("traced iteration_s", traced);
    std::cout << "output digest " << hex(tally.digest) << "\n";
    for (const std::string &p : tally.problems)
        std::cerr << "perfbench: check failed: " << p << "\n";

    const bool correct = tally.failed == 0 && tally.attempted > 0;
    Result metrics;
    if (!args.trace) {
        metrics.push_back(
            {"setup_s", {median(setupTimes) / slowdown, "s"}});
        metrics.push_back(
            {"items_per_s",
             {tally.items / (median(plain) / slowdown), "1/s"}});
        metrics.push_back({"peak_rss_mb", {peakRss, "MiB"}});
        metrics.push_back(
            {"passed_frac",
             {1.0 - double(tally.failed) / double(tally.attempted),
              "frac"}});
    } else {
        for (const auto &[name, unit] : perLayerCatalogue()) {
            double v = 0.0;
            if (name == "trace.overhead_frac")
                v = median(traced) / median(plain) - 1.0;
            else if (layer.count(name))
                v = median(layer.at(name));
            else if (setupLayer.count(name))
                v = median(setupLayer.at(name));
            metrics.push_back({name, {v, unit}});
        }
        if (!args.spansOut.empty()) {
            std::ofstream os(args.spansOut);
            tracer.writeJson(os);
            if (!os)
                std::cerr << "perfbench: could not write "
                          << args.spansOut << "\n";
        }
    }
    printResult(correct, tally, metrics);
    return correct ? 0 : 1;
}
