#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/format.h"
#include "common/parse.h"

namespace diva
{
namespace obs
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string
prioSeriesBase(const std::string &prefix, int priority)
{
    return prefix + "lat.p" + std::to_string(priority) + ".";
}

/** Add `r` into `dst` field by field; every row merge goes through
 *  here, so the float sums replay in one order. */
void
mergeRow(ComponentWindows::Row &dst, const ComponentWindows::Row &r)
{
    dst.w = r.w;
    dst.steps += r.steps;
    dst.withinTarget += r.withinTarget;
    dst.withinGlobal += r.withinGlobal;
    dst.queueWaitSec += r.queueWaitSec;
    dst.switchSec += r.switchSec;
    dst.migrationSec += r.migrationSec;
    dst.serviceSec += r.serviceSec;
    dst.totalSec += r.totalSec;
    dst.sketch.merge(r.sketch);
}

/** Evaluate one scope's windows and summary from merged rows, using
 *  `within(row)` as the in-target step count. */
template <typename WithinFn>
SloScope
buildScope(const std::string &name, double targetSec,
           const std::map<std::int64_t, ComponentWindows::Row> &rows,
           WithinFn within)
{
    SloScope scope;
    scope.name = name;
    scope.targetSec = targetSec;
    scope.worstP99Sec = -std::numeric_limits<double>::infinity();
    for (const auto &[w, row] : rows) {
        SloWindow sw;
        sw.w = w;
        sw.steps = row.steps;
        sw.withinTarget = within(row);
        sw.p99Sec = row.sketch.percentile(99.0);
        sw.breach = row.steps > 0 && sw.p99Sec > targetSec;
        scope.steps += sw.steps;
        scope.withinTarget += sw.withinTarget;
        if (sw.breach)
            ++scope.breachedWindows;
        if (row.steps > 0 && sw.p99Sec > scope.worstP99Sec) {
            scope.worstP99Sec = sw.p99Sec;
            scope.worstWindow = w;
        }
        scope.windows.push_back(sw);
    }
    if (!std::isfinite(scope.worstP99Sec))
        scope.worstP99Sec = kNaN;
    return scope;
}

void
writeSketchWindowJson(std::ostream &os, std::int64_t w, double t0,
                      const QuantileSketch &sk)
{
    os << "{\"w\": " << w << ", \"t0Sec\": " << jsonNumber(t0)
       << ", \"count\": " << sk.count()
       << ", \"min\": " << jsonNumber(sk.minValue())
       << ", \"max\": " << jsonNumber(sk.maxValue())
       << ", \"p50\": " << jsonNumber(sk.percentile(50.0))
       << ", \"p95\": " << jsonNumber(sk.percentile(95.0))
       << ", \"p99\": " << jsonNumber(sk.percentile(99.0)) << "}";
}

} // namespace

double
SloSpec::targetFor(int priority) const
{
    for (const auto &[p, t] : perPriority)
        if (p == priority)
            return t;
    return globalTargetSec;
}

bool
parseSloSpec(const std::string &text, SloSpec *out,
             std::string *error)
{
    *out = SloSpec{};
    std::stringstream ss(text);
    std::string item;
    bool sawAny = false;
    while (std::getline(ss, item, ',')) {
        sawAny = true;
        if (item.empty()) {
            *error = "--slo-p99-s: empty entry in spec";
            return false;
        }
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            const std::optional<double> t = parseDoubleText(item);
            if (!t || !(*t > 0.0)) {
                *error = "--slo-p99-s: '" + item +
                         "' is not a positive seconds value";
                return false;
            }
            if (out->globalTargetSec > 0.0) {
                *error = "--slo-p99-s: more than one global target";
                return false;
            }
            out->globalTargetSec = *t;
            continue;
        }
        const std::optional<long long> p =
            parseBoundedIntText(item.substr(0, colon), -1000000,
                                1000000);
        const std::optional<double> t =
            parseDoubleText(item.substr(colon + 1));
        if (!p || !t || !(*t > 0.0)) {
            *error = "--slo-p99-s: '" + item +
                     "' is not priority:positive-seconds";
            return false;
        }
        for (const auto &[prio, unused] : out->perPriority)
            if (prio == int(*p)) {
                *error = "--slo-p99-s: duplicate priority " +
                         std::to_string(*p);
                return false;
            }
        out->perPriority.emplace_back(int(*p), *t);
    }
    if (!sawAny) {
        *error = "--slo-p99-s: empty spec";
        return false;
    }
    if (text.back() == ',') {
        // getline never yields the trailing empty token, so catch the
        // dangling comma explicitly.
        *error = "--slo-p99-s: empty entry in spec";
        return false;
    }
    std::sort(out->perPriority.begin(), out->perPriority.end());
    return true;
}

double
SloScope::attainmentPct() const
{
    if (steps == 0)
        return kNaN;
    return 100.0 * double(withinTarget) / double(steps);
}

void
RunTelemetry::resolveWindow(double spanSec)
{
    if (!(windowSec > 0.0)) {
        windowSec =
            spanSec > 0.0 && std::isfinite(spanSec) ? spanSec / 64.0
                                                    : 1.0;
    }
    invWindowSec = 1.0 / windowSec;
    snapshot.windowSec = windowSec;
}

void
mergeComponentRows(const std::vector<ComponentWindows::Row> &rows,
                   std::map<std::int64_t, ComponentWindows::Row> *into)
{
    for (const ComponentWindows::Row &r : rows)
        mergeRow((*into)[r.w], r);
}

void
publishComponentSeries(
    const std::map<std::int64_t, ComponentWindows::Row> &rows,
    const std::string &base, TimeSeriesSnapshot *snap)
{
    using Kind = TimeSeries::Kind;
    TimeSeries &steps = snap->seriesRef(base + "steps",
                                        Kind::kCounter);
    TimeSeries &queueWait =
        snap->seriesRef(base + "queue_wait_s", Kind::kSum);
    TimeSeries &sw = snap->seriesRef(base + "switch_s", Kind::kSum);
    TimeSeries &mig =
        snap->seriesRef(base + "migration_s", Kind::kSum);
    TimeSeries &service =
        snap->seriesRef(base + "service_s", Kind::kSum);
    TimeSeries &total = snap->seriesRef(base + "total_s", Kind::kSum);
    std::map<std::int64_t, QuantileSketch> &sketches =
        snap->sketches[base + "step_latency_s"];
    for (const auto &[w, row] : rows) {
        steps.points[w] += double(row.steps);
        queueWait.points[w] += row.queueWaitSec;
        sw.points[w] += row.switchSec;
        mig.points[w] += row.migrationSec;
        service.points[w] += row.serviceSec;
        total.points[w] += row.totalSec;
        sketches[w].merge(row.sketch);
    }
}

void
publishLatencyWindows(
    const std::map<int, std::map<std::int64_t, ComponentWindows::Row>>
        &byPriority,
    const std::string &prefix, RunTelemetry *telemetry)
{
    TimeSeriesSnapshot *snap = &telemetry->snapshot;

    // Aggregate across priorities, in ascending priority order so the
    // float sums replay identically every run.
    std::map<std::int64_t, ComponentWindows::Row> all;
    for (const auto &[prio, rows] : byPriority) {
        for (const auto &[w, row] : rows)
            mergeRow(all[w], row);
        publishComponentSeries(rows, prioSeriesBase(prefix, prio),
                               snap);
    }
    publishComponentSeries(all, prefix + "lat.all.", snap);

    if (!telemetry->slo.enabled())
        return;
    SloReport &report = telemetry->report;
    if (telemetry->slo.globalTargetSec > 0.0)
        report.scopes.push_back(buildScope(
            prefix + "global", telemetry->slo.globalTargetSec, all,
            [](const ComponentWindows::Row &r) {
                return r.withinGlobal;
            }));
    for (const auto &[prio, rows] : byPriority) {
        const double target = telemetry->slo.targetFor(prio);
        if (!(target > 0.0))
            continue;
        report.scopes.push_back(buildScope(
            prefix + "priority " + std::to_string(prio), target, rows,
            [](const ComponentWindows::Row &r) {
                return r.withinTarget;
            }));
    }
}

void
RunTelemetry::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"diva-timeseries-v1\",\n"
       << "  \"windowSec\": " << jsonNumber(windowSec) << ",\n"
       << "  \"series\": {";
    const char *sep = "\n";
    for (const auto &[name, s] : snapshot.series) {
        os << sep << "    \"" << jsonEscape(name) << "\": {\"kind\": \""
           << timeSeriesKindName(s.kind) << "\", \"points\": [";
        bool first = true;
        for (const auto &[w, v] : s.points) {
            os << (first ? "" : ", ") << "{\"w\": " << w
               << ", \"t0Sec\": "
               << jsonNumber(double(w) * windowSec)
               << ", \"value\": " << jsonNumber(v) << "}";
            first = false;
        }
        os << "]}";
        sep = ",\n";
    }
    os << (snapshot.series.empty() ? "" : "\n  ")
       << "},\n  \"sketches\": {";
    sep = "\n";
    for (const auto &[name, windows] : snapshot.sketches) {
        os << sep << "    \"" << jsonEscape(name) << "\": [";
        bool first = true;
        for (const auto &[w, sk] : windows) {
            if (!first)
                os << ", ";
            writeSketchWindowJson(os, w, double(w) * windowSec, sk);
            first = false;
        }
        os << "]";
        sep = ",\n";
    }
    os << (snapshot.sketches.empty() ? "" : "\n  ") << "},\n";
    if (report.any()) {
        os << "  \"slo\": {\n    \"scopes\": [";
        for (std::size_t i = 0; i < report.scopes.size(); ++i) {
            const SloScope &sc = report.scopes[i];
            os << (i ? ",\n" : "\n") << "      {\"name\": \""
               << jsonEscape(sc.name) << "\", \"p99TargetSec\": "
               << jsonNumber(sc.targetSec) << ", \"windows\": [";
            for (std::size_t k = 0; k < sc.windows.size(); ++k) {
                const SloWindow &sw = sc.windows[k];
                os << (k ? ", " : "") << "{\"w\": " << sw.w
                   << ", \"steps\": " << sw.steps
                   << ", \"withinTarget\": " << sw.withinTarget
                   << ", \"p99Sec\": " << jsonNumber(sw.p99Sec)
                   << ", \"breach\": "
                   << (sw.breach ? "true" : "false") << "}";
            }
            os << "], \"summary\": {\"steps\": " << sc.steps
               << ", \"withinTarget\": " << sc.withinTarget
               << ", \"attainmentPct\": "
               << jsonNumber(sc.attainmentPct())
               << ", \"breachedWindows\": " << sc.breachedWindows
               << ", \"windows\": " << sc.windows.size()
               << ", \"worstP99Sec\": " << jsonNumber(sc.worstP99Sec)
               << ", \"worstWindow\": " << sc.worstWindow << "}}";
        }
        os << "\n    ]\n  },\n";
    }
    os << "  \"decomposition\": {\"steps\": " << decompSteps
       << ", \"exactSumFailures\": " << decompExactFailures
       << "}\n}\n";
}

void
RunTelemetry::writeCsv(std::ostream &os) const
{
    std::string buf = "kind,series,window,t0_s,value\n";
    // One "kind,series,window,t0_s,value" row; the series name is the
    // only cell that can need quoting (serve series embed tenant names).
    auto row = [&](std::string_view kind, const std::string &name,
                   std::int64_t w, const auto &value) {
        buf += kind;
        appendCells(buf, name, w, double(w) * windowSec, value);
        buf += '\n';
        flushRows(os, buf);
    };
    for (const auto &[name, s] : snapshot.series)
        for (const auto &[w, v] : s.points)
            row(timeSeriesKindName(s.kind), name, w, v);
    for (const auto &[name, windows] : snapshot.sketches)
        for (const auto &[w, sk] : windows) {
            row("count", name, w, sk.count());
            row("p50", name, w, sk.percentile(50.0));
            row("p95", name, w, sk.percentile(95.0));
            row("p99", name, w, sk.percentile(99.0));
        }
    for (const SloScope &sc : report.scopes)
        for (const SloWindow &sw : sc.windows) {
            const double pct =
                sw.steps > 0 ? 100.0 * double(sw.withinTarget) /
                                   double(sw.steps)
                             : kNaN;
            row("slo_attainment_pct", sc.name, sw.w, pct);
            row("slo_breach", sc.name, sw.w, sw.breach);
        }
    flushRows(os, buf, true);
}

void
RunTelemetry::printSloSummary(std::ostream &os) const
{
    if (!report.any())
        return;
    os << "SLO p99 attainment:\n";
    for (const SloScope &sc : report.scopes) {
        os << "  " << sc.name << ": target "
           << formatDouble(sc.targetSec) << "s, steps " << sc.steps
           << ", attainment " << formatDouble(sc.attainmentPct())
           << "%, breached " << sc.breachedWindows << "/"
           << sc.windows.size() << " windows";
        if (sc.steps > 0)
            os << ", worst p99 " << formatDouble(sc.worstP99Sec)
               << "s @ window " << sc.worstWindow;
        os << "\n";
    }
}

} // namespace obs
} // namespace diva
