/**
 * @file
 * Tests of the arrival-trace subsystem: CSV/JSONL loaders (round
 * trips, column order independence, malformed input), seeded
 * generator determinism (same seed => byte-identical trace, different
 * seed => different trace) across all three arrival kinds, generator
 * spec parsing, the QoS admission controller's greedy feasible
 * subset, and seeded grammar fuzzing of the trace CSV and JSONL, the
 * generator spec (--arrivals), the fleet's pod template (--pod) and
 * the SLO target spec (--slo-p99-s).
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "arrivals/admission.h"
#include "arrivals/generate.h"
#include "arrivals/trace.h"
#include "common/format.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "obs/slo.h"

namespace diva
{
namespace
{

std::string
traceCsv(const ArrivalTrace &trace)
{
    std::ostringstream oss;
    writeTraceCsv(oss, trace);
    return oss.str();
}

TEST(Trace, CsvRoundTrips)
{
    ArrivalTrace trace;
    trace.name = "round-trip";
    TenantJob a;
    a.name = "a0:ResNet-50";
    a.model = "ResNet-50";
    a.batch = 32;
    a.arrivalSec = 0.125;
    a.departSec = 2.5;
    a.steps = 64;
    a.qosStepsPerSec = 1.75;
    a.priority = 2;
    a.algorithm = TrainingAlgorithm::kDpSgd;
    trace.jobs.push_back(a);
    TenantJob b;
    b.name = "a1:BERT-base";
    b.model = "BERT-base";
    b.batch = 8;
    b.arrivalSec = 0.3333333333333333;
    b.steps = 16;
    trace.jobs.push_back(b);

    const std::string csv = traceCsv(trace);
    std::istringstream in(csv);
    std::string err;
    const ArrivalTrace loaded = loadTraceCsv(in, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(loaded.name, "round-trip");
    ASSERT_EQ(loaded.jobs.size(), 2u);
    EXPECT_EQ(loaded.jobs[0].name, "a0:ResNet-50");
    EXPECT_EQ(loaded.jobs[0].model, "ResNet-50");
    EXPECT_EQ(loaded.jobs[0].batch, 32);
    EXPECT_DOUBLE_EQ(loaded.jobs[0].arrivalSec, 0.125);
    EXPECT_DOUBLE_EQ(loaded.jobs[0].departSec, 2.5);
    EXPECT_EQ(loaded.jobs[0].steps, 64u);
    EXPECT_DOUBLE_EQ(loaded.jobs[0].qosStepsPerSec, 1.75);
    EXPECT_EQ(loaded.jobs[0].priority, 2);
    EXPECT_EQ(loaded.jobs[0].algorithm, TrainingAlgorithm::kDpSgd);
    // The shortest-round-trip double formatter must reproduce even
    // non-terminating decimals exactly.
    EXPECT_DOUBLE_EQ(loaded.jobs[1].arrivalSec, 0.3333333333333333);

    // Re-emitting the loaded trace is byte-identical.
    EXPECT_EQ(traceCsv(loaded), csv);
}

// Names and models holding the CSV specials -- and names opening with
// the comment mark '#' -- are quoted on the way out and unquoted on
// the way in, so a save/load pass is lossless.
TEST(Trace, CsvRoundTripsQuotedCells)
{
    ArrivalTrace trace;
    trace.name = "quoted";
    for (const char *name : {"a,b", "q\"x", "\"", "\"\"", ",", "p\"q,r",
                             "#x"}) {
        TenantJob j;
        j.name = name;
        j.model = "SqueezeNet\"";
        j.steps = 4;
        trace.jobs.push_back(j);
    }
    const std::string csv = traceCsv(trace);
    std::istringstream in(csv);
    std::string err;
    const ArrivalTrace loaded = loadTraceCsv(in, &err);
    ASSERT_TRUE(err.empty()) << err << "\n" << csv;
    ASSERT_EQ(loaded.jobs.size(), trace.jobs.size());
    for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
        EXPECT_EQ(loaded.jobs[i].name, trace.jobs[i].name);
        EXPECT_EQ(loaded.jobs[i].model, "SqueezeNet\"");
    }
    EXPECT_EQ(traceCsv(loaded), csv);
}

TEST(Trace, CsvColumnsMayReorderAndUnknownsReject)
{
    std::istringstream in("arrival_s,model,steps\n"
                          "0.5,SqueezeNet,8\n"
                          "1,MobileNet,4\n");
    std::string err;
    const ArrivalTrace t = loadTraceCsv(in, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(t.jobs.size(), 2u);
    EXPECT_EQ(t.jobs[0].model, "SqueezeNet");
    EXPECT_DOUBLE_EQ(t.jobs[0].arrivalSec, 0.5);
    EXPECT_EQ(t.jobs[0].name, "a0:SqueezeNet") << "auto-named";

    std::istringstream bad("model,frobnicate\nSqueezeNet,1\n");
    loadTraceCsv(bad, &err);
    EXPECT_NE(err.find("unknown column"), std::string::npos) << err;

    std::istringstream short_row("model,steps\nSqueezeNet\n");
    loadTraceCsv(short_row, &err);
    EXPECT_NE(err.find("expected 2 cells"), std::string::npos) << err;

    std::istringstream negative("model,arrival_s\nSqueezeNet,-1\n");
    loadTraceCsv(negative, &err);
    EXPECT_FALSE(err.empty()) << "negative arrival must not load";

    std::istringstream empty("");
    loadTraceCsv(empty, &err);
    EXPECT_FALSE(err.empty());
}

// Exact "line N: ..." messages for malformed traces, pinned so loader
// rewrites keep every message and line number byte-identical.
TEST(Trace, CsvErrorMessagesArePinned)
{
    const struct
    {
        const char *csv;
        const char *message;
    } cases[] = {
        {"model,steps\nSqueezeNet\n",
         "line 2: expected 2 cells, got 1"},
        {"model,steps\nSqueezeNet,1,2\n",
         "line 2: expected 2 cells, got 3"},
        {"model,frobnicate\nSqueezeNet,1\n",
         "line 1: unknown column 'frobnicate'"},
        {"name,steps\nx,1\n", "line 1: header needs a 'model' column"},
        {"model,steps\n,1\n", "line 2: model must not be empty"},
        {"model,scale\nM,abc\n",
         "line 2: scale must be an integer in [0, 2147483647], got "
         "'abc'"},
        {"model,batch\nM,-1\n",
         "line 2: batch must be an integer in [0, 2147483647], got "
         "'-1'"},
        {"model,microbatch\nM,1.5\n",
         "line 2: microbatch must be an integer in [0, 2147483647], "
         "got '1.5'"},
        {"model,priority\nM,2147483648\n",
         "line 2: priority must be an integer in [-2147483648, "
         "2147483647], got '2147483648'"},
        {"model,steps\nM,-1\n",
         "line 2: steps must be an integer in [0, 9223372036854775807], "
         "got '-1'"},
        {"model,steps\nM,0x10\n",
         "line 2: steps must be an integer in [0, 9223372036854775807], "
         "got '0x10'"},
        {"model,steps\nM,99999999999999999999\n",
         "line 2: steps must be an integer in [0, 9223372036854775807], "
         "got '99999999999999999999'"},
        {"model,steps\nM,1 \n",
         "line 2: steps must be an integer in [0, 9223372036854775807], "
         "got '1 '"},
        {"model,algorithm\nM,adam\n", "line 2: unknown algorithm 'adam'"},
        {"model,arrival_s\nM,-1\n",
         "line 2: arrival_s must be a finite number >= 0, got '-1'"},
        {"model,arrival_s\nM,1e-310\n",
         "line 2: arrival_s must be a finite number >= 0, got '1e-310'"},
        {"model,depart_s\nM,inf\n",
         "line 2: depart_s must be a finite number >= 0, got 'inf'"},
        {"model,qos_sps\nM,1e400\n",
         "line 2: qos_sps must be a finite number >= 0, got '1e400'"},
        {"model,qos_deadline_s\nM,nan\n",
         "line 2: qos_deadline_s must be a finite number >= 0, got "
         "'nan'"},
        {"model,qos_deadline_s\nM,1e\n",
         "line 2: qos_deadline_s must be a finite number >= 0, got "
         "'1e'"},
        {"model,steps\r\nM,1\r\nM,x\r\n",
         "line 3: steps must be an integer in [0, 9223372036854775807], "
         "got 'x'"},
        {"# c\n\nmodel,steps\n\n# c2\nM,1\n\nM,x\n",
         "line 8: steps must be an integer in [0, 9223372036854775807], "
         "got 'x'"},
        {"model,steps,\nM,1,\n", "line 1: unknown column ''"},
        {"model,steps\nM,1,\n", "line 2: expected 2 cells, got 3"},
        {"model, steps\nM,1\n", "line 1: unknown column ' steps'"},
        {"# trace: only\n\n", "line 2: missing header row"},
        {"", "line 0: missing header row"},
        {"model\n", "line 1: trace has no tenant sessions"},
        {"model\n# just a comment\n\n",
         "line 3: trace has no tenant sessions"},
        {",\n", "line 1: unknown column ''"},
        {"Model,STEPS\nM,1.0\n",
         "line 2: steps must be an integer in [0, 9223372036854775807], "
         "got '1.0'"},
        {"name,model\n\"a,b,M\n", "line 2: unterminated quoted cell"},
        {"name,model\n\"a\nb\",M\n", "line 2: unterminated quoted cell"},
        {"name,model\n\"a\"b,M\n", "line 2: text after a closing quote"},
        {"name,model\n\"a,b\",M,1\n", "line 2: expected 2 cells, got 3"},
    };
    for (const auto &c : cases) {
        std::istringstream in(c.csv);
        std::string err;
        const ArrivalTrace t = loadTraceCsv(in, &err);
        EXPECT_EQ(err, c.message) << "input: " << c.csv;
        EXPECT_TRUE(t.jobs.empty()) << "input: " << c.csv;
    }
}

// Cells the number grammar accepts beyond the canonical spellings
// (std::stoll / std::stod rules: leading blanks, '+', hex floats).
TEST(Trace, CsvAcceptsTheStdNumberSpellings)
{
    std::istringstream in("model,priority,arrival_s,qos_sps\n"
                          "M, 1,0x1p3,.5\n"
                          "M,+2,8,1.\n"
                          "M,-0,8, 2.5\n"
                          "M,\t3,8,+0.5\n"
                          "M,007,8,2.2250738585072014e-308\n"
                          "M,-7,8,0e-400\n");
    std::string err;
    const ArrivalTrace t = loadTraceCsv(in, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(t.jobs.size(), 6u);
    const int priorities[] = {1, 2, 0, 3, 7, -7};
    const double qos[] = {0.5, 1.0, 2.5, 0.5, 2.2250738585072014e-308,
                          0.0};
    for (std::size_t i = 0; i < t.jobs.size(); ++i) {
        EXPECT_EQ(t.jobs[i].priority, priorities[i]) << i;
        EXPECT_EQ(t.jobs[i].arrivalSec, 8.0) << i;
        EXPECT_EQ(t.jobs[i].qosStepsPerSec, qos[i]) << i;
    }
}

/** True when `err` reads "line N: <message>". */
bool
isLineError(const std::string &err)
{
    std::size_t i = 5;
    if (err.compare(0, i, "line ") != 0)
        return false;
    while (i < err.size() &&
           std::isdigit(static_cast<unsigned char>(err[i])))
        ++i;
    return i > 5 && err.compare(i, 2, ": ") == 0 && err.size() > i + 2;
}

/** Seeded byte-level mutation of a trace CSV: delete or duplicate
 *  bytes, swap two cells of one line, or truncate. */
std::string
mutateTrace(std::string s, Rng &rng)
{
    const int edits = 1 + int(rng.uniformInt(3));
    for (int e = 0; e < edits && !s.empty(); ++e) {
        const std::size_t at = rng.uniformInt(s.size());
        switch (rng.uniformInt(4)) {
          case 0:
            s.erase(at, 1 + rng.uniformInt(3));
            break;
          case 1:
            s.insert(at, s.substr(at, 1 + rng.uniformInt(3)));
            break;
          case 2: {
            // Swap two cells of the line holding `at`.
            const std::size_t begin = s.rfind('\n', at) + 1;
            const std::size_t end = std::min(s.find('\n', at), s.size());
            std::vector<std::string> cells;
            std::string cell;
            std::istringstream line(s.substr(begin, end - begin));
            while (std::getline(line, cell, ','))
                cells.push_back(cell);
            if (cells.size() < 2)
                break;
            std::swap(cells[rng.uniformInt(cells.size())],
                      cells[rng.uniformInt(cells.size())]);
            std::string joined;
            for (std::size_t c = 0; c < cells.size(); ++c)
                joined += (c ? "," : "") + cells[c];
            s.replace(begin, end - begin, joined);
            break;
          }
          default:
            s.resize(at);
        }
    }
    return s;
}

// Every mutation of a canonical trace either loads -- and then
// writeTraceCsv . loadTraceCsv is a fixed point -- or fails with a
// "line N: ..." message. Nothing may crash (the sanitizer CI job runs
// this too).
TEST(Trace, CsvGrammarFuzz)
{
    TraceGenSpec spec;
    spec.ratePerSec = 4.0;
    spec.horizonSec = 6.0;
    spec.holdSec = 2.5;
    spec.qosStepsPerSec = 1.5;
    spec.maxTenants = 12;
    ArrivalTrace canonical = generateTrace(spec);
    ASSERT_GE(canonical.jobs.size(), 4u);
    canonical.jobs[1].algorithm = TrainingAlgorithm::kSgd;
    canonical.jobs[2].algorithm = TrainingAlgorithm::kDpSgd;
    canonical.jobs[2].microbatch = 4;
    canonical.jobs[3].modelScale = 2;
    canonical.jobs[3].qosDeadlineSec = 30.25;
    canonical.jobs[0].name = "a,b";
    canonical.jobs[2].name = "q\"x";
    canonical.jobs[3].name = "#x";
    const std::string base = traceCsv(canonical);

    Rng rng(2022);
    int loaded = 0, failed = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string input = mutateTrace(base, rng);
        std::istringstream in(input);
        std::string err;
        const ArrivalTrace t = loadTraceCsv(in, &err);
        if (!err.empty()) {
            ++failed;
            EXPECT_TRUE(isLineError(err)) << err << "\ninput:\n" << input;
            EXPECT_TRUE(t.jobs.empty());
            continue;
        }
        ++loaded;
        const std::string once = traceCsv(t);
        std::istringstream again(once);
        const ArrivalTrace reloaded = loadTraceCsv(again, &err);
        ASSERT_TRUE(err.empty()) << err << "\ninput:\n" << input;
        EXPECT_EQ(traceCsv(reloaded), once) << "input:\n" << input;
    }
    // Both outcomes must be exercised for the property to mean much.
    EXPECT_GT(loaded, 100);
    EXPECT_GT(failed, 100);
}

/** The canonical JSONL form of a trace CSV: a {"trace": ...} record,
 *  a comment and a blank line, then one object per row keyed by the
 *  header, numeric cells bare and the rest quoted ('"' and '\\'
 *  backslash-escaped). */
std::string
traceJsonl(const ArrivalTrace &trace)
{
    std::istringstream csv(traceCsv(trace));
    std::string line;
    std::getline(csv, line); // "# trace: NAME"
    std::getline(csv, line);
    std::vector<std::string_view> cells;
    EXPECT_EQ(splitCsvCells(line, &cells), "");
    const std::vector<std::string> header(cells.begin(), cells.end());
    std::string out = "{\"trace\": \"" + trace.name + "\"}\n# recorded\n\n";
    while (std::getline(csv, line)) {
        EXPECT_EQ(splitCsvCells(line, &cells), "") << line;
        out += '{';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const std::string cell(cells[c]);
            char *end = nullptr;
            const bool number = !cell.empty() &&
                                (std::strtod(cell.c_str(), &end),
                                 *end == '\0');
            out += (c ? ", \"" : "\"") + header.at(c) + "\": ";
            if (number) {
                out += cell;
                continue;
            }
            out += '"';
            for (char ch : cell) {
                if (ch == '"' || ch == '\\')
                    out += '\\';
                out += ch;
            }
            out += '"';
        }
        out += "}\n";
    }
    return out;
}

// The JSONL loader under the same mutations as the CSV one (byte
// deletes and duplicates, item swaps, truncation): every input either
// loads sessions that each name a model -- and then JSONL -> CSV ->
// CSV is a fixed point, whatever commas and quotes the names picked
// up -- or fails with a "line N: ..." message and no jobs. Nothing may
// crash (the sanitizer CI job runs this too).
TEST(Trace, JsonlGrammarFuzz)
{
    TraceGenSpec spec;
    spec.ratePerSec = 4.0;
    spec.horizonSec = 6.0;
    spec.holdSec = 2.5;
    spec.qosStepsPerSec = 1.5;
    spec.maxTenants = 12;
    ArrivalTrace canonical = generateTrace(spec);
    ASSERT_GE(canonical.jobs.size(), 4u);
    canonical.jobs[1].algorithm = TrainingAlgorithm::kSgd;
    canonical.jobs[2].microbatch = 4;
    canonical.jobs[3].qosDeadlineSec = 30.25;
    canonical.jobs[0].name = "a,b";
    canonical.jobs[2].name = "q\"x";
    canonical.jobs[3].name = "#x";
    const std::string base = traceJsonl(canonical);
    {
        std::istringstream in(base);
        std::string err;
        const ArrivalTrace t = loadTraceJsonl(in, &err);
        ASSERT_TRUE(err.empty()) << err << "\ninput:\n" << base;
        ASSERT_EQ(traceCsv(t), traceCsv(canonical));
    }

    Rng rng(2022);
    int loaded = 0, failed = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string input = mutateTrace(base, rng);
        std::istringstream in(input);
        std::string err;
        const ArrivalTrace t = loadTraceJsonl(in, &err);
        if (!err.empty()) {
            ++failed;
            EXPECT_TRUE(isLineError(err)) << err << "\ninput:\n" << input;
            EXPECT_TRUE(t.jobs.empty());
            continue;
        }
        ++loaded;
        EXPECT_FALSE(t.jobs.empty()) << "input:\n" << input;
        for (const TenantJob &job : t.jobs)
            EXPECT_FALSE(job.model.empty()) << "input:\n" << input;
        const std::string once = traceCsv(t);
        std::istringstream again(once);
        const ArrivalTrace reloaded = loadTraceCsv(again, &err);
        ASSERT_TRUE(err.empty()) << err << "\ninput:\n" << input;
        EXPECT_EQ(traceCsv(reloaded), once) << "input:\n" << input;
    }
    EXPECT_GT(loaded, 100);
    EXPECT_GT(failed, 100);
}

/** Seeded mutation of a `key=value,...` spec: delete, duplicate or
 *  insert bytes, swap two items, replace a value with an edge token,
 *  or truncate. */
std::string
mutateSpec(std::string s, Rng &rng)
{
    static const char kBytes[] = ",=:.-+e0123456789xnaif";
    static const char *const kTokens[] = {
        "", "0", "-1", "2.7", "1e309", "1e-320", "nan", "inf", "0x1p3",
        "65537", "9223372036854775808", "WS", "on", "off"};
    const int edits = 1 + int(rng.uniformInt(3));
    for (int e = 0; e < edits && !s.empty(); ++e) {
        const std::size_t at = rng.uniformInt(s.size());
        switch (rng.uniformInt(6)) {
          case 0:
            s.erase(at, 1 + rng.uniformInt(3));
            break;
          case 1:
            s.insert(at, s.substr(at, 1 + rng.uniformInt(3)));
            break;
          case 2:
            s.insert(s.begin() + std::ptrdiff_t(at),
                     kBytes[rng.uniformInt(sizeof(kBytes) - 1)]);
            break;
          case 3: {
            // Swap two comma-separated items.
            std::vector<std::string> items;
            std::string item;
            std::istringstream in(s);
            while (std::getline(in, item, ','))
                items.push_back(item);
            if (items.size() < 2)
                break;
            std::swap(items[rng.uniformInt(items.size())],
                      items[rng.uniformInt(items.size())]);
            s.clear();
            for (std::size_t i = 0; i < items.size(); ++i)
                s += (i ? "," : "") + items[i];
            break;
          }
          case 4: {
            // Replace the value after the `=` at or before `at`.
            const std::size_t eq = s.rfind('=', at);
            if (eq == std::string::npos)
                break;
            const std::size_t end = std::min(s.find(',', eq), s.size());
            s.replace(eq + 1, end - eq - 1,
                      kTokens[rng.uniformInt(std::size(kTokens))]);
            break;
          }
          default:
            s.resize(at);
        }
    }
    return s;
}

// Every mutation of a valid generator spec either parses to a spec
// that passes validation or returns nullopt with a non-empty error.
TEST(TraceGenSpec, GrammarFuzz)
{
    const std::string bases[] = {
        "diurnal:rate=12,horizon=600,seed=7,qos=2,hold=4,cap=50,"
        "prios=3,peak=3,batch=16,steps=10",
        "onoff:rate=4,on=2,off=1,horizon=30,steps=0,hold=2",
        "poisson:rate=6,seed=9,hold=1,qos=2"};
    Rng rng(1522);
    int parsed = 0, failed = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string input = mutateSpec(bases[i % 3], rng);
        std::string err = "stale";
        const std::optional<TraceGenSpec> spec =
            parseTraceGenSpec(input, &err);
        if (!spec) {
            ++failed;
            EXPECT_FALSE(err.empty()) << "input: " << input;
            continue;
        }
        ++parsed;
        EXPECT_TRUE(err.empty()) << err << "\ninput: " << input;
        EXPECT_EQ(spec->validationError(), "") << "input: " << input;
    }
    EXPECT_GT(parsed, 300);
    EXPECT_GT(failed, 300);
}

// The same property for the fleet's pod template: a parse yields pods
// a fleet accepts, or nullopt with an error.
TEST(PodTemplate, GrammarFuzz)
{
    const std::string bases[] = {
        "df=OS,ppu=off,chips=4,count=3,ici-gbs=70,link-lat=500",
        "df=WS,ppu=off,count=2", "dataflow=DiVa,ppu=on,chips=2"};
    Rng rng(2215);
    int parsed = 0, failed = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string input = mutateSpec(bases[i % 3], rng);
        std::string err = "stale";
        const auto pods = parsePodTemplate(input, &err);
        if (!pods) {
            ++failed;
            EXPECT_FALSE(err.empty()) << "input: " << input;
            continue;
        }
        ++parsed;
        EXPECT_TRUE(err.empty()) << err << "\ninput: " << input;
        ASSERT_FALSE(pods->empty()) << "input: " << input;
        EXPECT_EQ(buildFleet({*pods}).validationError(), "")
            << "input: " << input;
    }
    EXPECT_GT(parsed, 300);
    EXPECT_GT(failed, 300);
}

// The `key=value` list walker both specs share reports a bare item
// with one message, in item order.
TEST(KeyValueList, ErrorsArePinned)
{
    std::string err;
    EXPECT_FALSE(parseTraceGenSpec("poisson:rate=2,,hold", &err));
    EXPECT_EQ(err, "expected key=value, got 'hold'");
    EXPECT_FALSE(parseTraceGenSpec("poisson:rate=x,hold", &err));
    EXPECT_EQ(err, "key 'rate' needs a finite number, got 'x'");
    EXPECT_FALSE(parsePodTemplate("df=OS,chips", &err));
    EXPECT_EQ(err, "expected key=value, got 'chips'");
    EXPECT_FALSE(parsePodTemplate("count=0,=,x", &err));
    EXPECT_EQ(err, "count must be in [1, 65536], got '0'");
    EXPECT_FALSE(parsePodTemplate(",,=DiVa", &err));
    EXPECT_EQ(err,
              "unknown key '' (want df, ppu, chips, count, ici-gbs, or "
              "link-lat)");
    ASSERT_TRUE(parsePodTemplate(",df=OS,,count=2,", &err)) << err;
    EXPECT_EQ(parsePodTemplate(",df=OS,,count=2,", &err)->size(), 2u);
}

// Seeded mutations of valid --slo-p99-s specs: each parses to a spec
// with only positive finite targets, or fails with a "--slo-p99-s:"
// message. Nothing may throw.
TEST(SloSpec, GrammarFuzz)
{
    const std::string bases[] = {"0.5", "0.5,1:0.2,0:0.8",
                                 "2:1e-3,7:0.25,-3:4"};
    Rng rng(3311);
    int parsed = 0, failed = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string input = mutateSpec(bases[i % 3], rng);
        obs::SloSpec spec;
        std::string err;
        bool ok = false;
        EXPECT_NO_THROW(ok = obs::parseSloSpec(input, &spec, &err))
            << "input: " << input;
        if (!ok) {
            ++failed;
            EXPECT_EQ(err.rfind("--slo-p99-s: ", 0), 0u)
                << err << "\ninput: " << input;
            continue;
        }
        ++parsed;
        EXPECT_TRUE(spec.enabled()) << "input: " << input;
        EXPECT_TRUE(spec.globalTargetSec == 0.0 ||
                    (spec.globalTargetSec > 0.0 &&
                     std::isfinite(spec.globalTargetSec)))
            << "input: " << input;
        for (const auto &[prio, target] : spec.perPriority)
            EXPECT_TRUE(target > 0.0 && std::isfinite(target))
                << "input: " << input;
        EXPECT_TRUE(std::is_sorted(spec.perPriority.begin(),
                                   spec.perPriority.end()))
            << "input: " << input;
    }
    EXPECT_GT(parsed, 300);
    EXPECT_GT(failed, 300);
}

TEST(Trace, JsonlLoadsAndToleratesExtraKeys)
{
    std::istringstream in(
        "{\"trace\": \"recorded\"}\n"
        "\n"
        "{\"model\": \"SqueezeNet\", \"arrival_s\": 0.25, "
        "\"steps\": 8, \"qos_sps\": 2, \"recorded_by\": \"prod\"}\n"
        "{\"name\": \"late\", \"model\": \"BERT-base\", "
        "\"arrival_s\": 1.5, \"depart_s\": 3, \"steps\": 0}\n");
    std::string err;
    const ArrivalTrace t = loadTraceJsonl(in, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(t.name, "recorded");
    ASSERT_EQ(t.jobs.size(), 2u);
    EXPECT_EQ(t.jobs[0].model, "SqueezeNet");
    EXPECT_DOUBLE_EQ(t.jobs[0].qosStepsPerSec, 2.0);
    EXPECT_EQ(t.jobs[1].name, "late");
    EXPECT_DOUBLE_EQ(t.jobs[1].departSec, 3.0);
    EXPECT_EQ(t.jobs[1].steps, 0u) << "unbounded until departure";

    std::istringstream bad("not json\n");
    loadTraceJsonl(bad, &err);
    EXPECT_FALSE(err.empty());

    std::istringstream no_model("{\"arrival_s\": 1}\n");
    loadTraceJsonl(no_model, &err);
    EXPECT_NE(err.find("model"), std::string::npos) << err;
}

TEST(Trace, ValidationCatchesOrderAndLifetimes)
{
    ArrivalTrace t;
    t.name = "bad";
    TenantJob j;
    j.name = "a0";
    j.model = "SqueezeNet";
    j.steps = 4;
    j.arrivalSec = 2.0;
    t.jobs.push_back(j);
    j.name = "a1";
    j.arrivalSec = 1.0; // decreasing
    t.jobs.push_back(j);
    EXPECT_NE(t.validationError(false).find("non-decreasing"),
              std::string::npos);

    // Departure before arrival is rejected by the job validation.
    ArrivalTrace d;
    d.name = "depart";
    j.name = "a0";
    j.arrivalSec = 5.0;
    j.departSec = 2.0;
    d.jobs.push_back(j);
    EXPECT_NE(d.validationError(false).find("departure"),
              std::string::npos);

    EXPECT_FALSE(ArrivalTrace{}.validationError(false).empty());
}

TEST(Generate, SameSeedIsByteIdenticalDifferentSeedIsNot)
{
    for (ArrivalKind kind :
         {ArrivalKind::kPoisson, ArrivalKind::kOnOff,
          ArrivalKind::kDiurnal}) {
        TraceGenSpec spec;
        spec.kind = kind;
        spec.ratePerSec = 6.0;
        spec.horizonSec = 4.0;
        spec.steps = 4;
        spec.seed = 42;
        const std::string first = traceCsv(generateTrace(spec));
        const std::string second = traceCsv(generateTrace(spec));
        EXPECT_EQ(first, second)
            << arrivalKindName(kind) << ": same seed must replay";
        spec.seed = 43;
        EXPECT_NE(traceCsv(generateTrace(spec)), first)
            << arrivalKindName(kind) << ": seeds must differentiate";
    }
}

TEST(Generate, ArrivalsRespectHorizonCapAndOrdering)
{
    TraceGenSpec spec;
    spec.ratePerSec = 50.0;
    spec.horizonSec = 2.0;
    spec.steps = 1;
    spec.maxTenants = 10;
    const ArrivalTrace capped = generateTrace(spec);
    EXPECT_EQ(capped.jobs.size(), 10u) << "cap bounds rate*horizon";

    spec.maxTenants = 1000;
    const ArrivalTrace t = generateTrace(spec);
    EXPECT_GT(t.jobs.size(), 50u) << "~100 expected at rate 50 x 2 s";
    EXPECT_LT(t.jobs.size(), 200u);
    for (std::size_t i = 0; i < t.jobs.size(); ++i) {
        EXPECT_GE(t.jobs[i].arrivalSec, 0.0);
        EXPECT_LT(t.jobs[i].arrivalSec, spec.horizonSec);
        if (i > 0)
            EXPECT_GE(t.jobs[i].arrivalSec, t.jobs[i - 1].arrivalSec);
    }
    EXPECT_TRUE(t.validationError(false).empty())
        << t.validationError(false);
}

TEST(Generate, OnOffLeavesSilentWindows)
{
    TraceGenSpec spec;
    spec.kind = ArrivalKind::kOnOff;
    spec.ratePerSec = 40.0;
    spec.onSec = 0.5;
    spec.offSec = 0.5;
    spec.horizonSec = 4.0;
    spec.steps = 1;
    spec.maxTenants = 1000;
    const ArrivalTrace t = generateTrace(spec);
    ASSERT_GT(t.jobs.size(), 20u);
    for (const TenantJob &j : t.jobs) {
        // Arrivals only land in the on half of each 1 s cycle.
        const double phase = std::fmod(j.arrivalSec, 1.0);
        EXPECT_LT(phase, 0.5) << "arrival inside an off window";
    }
}

TEST(Generate, HoldSetsDeparturesAndTemplateApplies)
{
    TraceGenSpec spec;
    spec.ratePerSec = 8.0;
    spec.horizonSec = 2.0;
    spec.steps = 0;
    spec.holdSec = 1.5;
    spec.qosStepsPerSec = 3.0;
    spec.batch = 16;
    const ArrivalTrace t = generateTrace(spec);
    ASSERT_FALSE(t.jobs.empty());
    for (const TenantJob &j : t.jobs) {
        EXPECT_DOUBLE_EQ(j.departSec, j.arrivalSec + 1.5);
        EXPECT_DOUBLE_EQ(j.qosStepsPerSec, 3.0);
        EXPECT_EQ(j.batch, 16);
        EXPECT_EQ(j.steps, 0u);
    }
    EXPECT_TRUE(t.validationError(false).empty())
        << "unbounded steps are fine with departures";
}

TEST(Generate, SpecParsing)
{
    std::string err;
    const auto spec = parseTraceGenSpec(
        "onoff:rate=12,seed=9,horizon=6,on=0.25,off=0.75,steps=8,"
        "qos=1.5,hold=2,batch=4,cap=32,prios=2",
        &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->kind, ArrivalKind::kOnOff);
    EXPECT_DOUBLE_EQ(spec->ratePerSec, 12.0);
    EXPECT_EQ(spec->seed, 9u);
    EXPECT_DOUBLE_EQ(spec->horizonSec, 6.0);
    EXPECT_DOUBLE_EQ(spec->onSec, 0.25);
    EXPECT_DOUBLE_EQ(spec->offSec, 0.75);
    EXPECT_EQ(spec->steps, 8u);
    EXPECT_TRUE(spec->stepsSet);
    EXPECT_DOUBLE_EQ(spec->qosStepsPerSec, 1.5);
    EXPECT_TRUE(spec->qosSet);
    EXPECT_DOUBLE_EQ(spec->holdSec, 2.0);
    EXPECT_EQ(spec->batch, 4);
    EXPECT_EQ(spec->maxTenants, 32);
    EXPECT_EQ(spec->priorityLevels, 2);

    EXPECT_TRUE(parseTraceGenSpec("poisson", &err)) << err;
    EXPECT_FALSE(parseTraceGenSpec("zipf:rate=1", &err));
    EXPECT_FALSE(parseTraceGenSpec("poisson:rate=0", &err));
    EXPECT_FALSE(parseTraceGenSpec("poisson:rate=nope", &err));
    EXPECT_FALSE(parseTraceGenSpec("poisson:warp=9", &err));
    EXPECT_FALSE(parseTraceGenSpec("poisson:rate", &err));
    EXPECT_FALSE(parseTraceGenSpec("poisson:steps=0", &err))
        << "steps 0 without hold cannot terminate";
}

TEST(Admission, GreedyFeasibleSubsetByPriority)
{
    auto job = [](const char *name, double rate, int prio) {
        TenantJob j;
        j.name = name;
        j.model = "SqueezeNet";
        j.steps = 8;
        j.qosStepsPerSec = rate;
        j.priority = prio;
        return j;
    };
    auto cost = [](double seconds) {
        IterationCost c;
        c.seconds = seconds;
        c.energyJ = 1.0;
        return c;
    };
    // Demands: 0.6, 0.6, 0.3, 0 (best effort). Cap 1.0.
    const std::vector<TenantJob> jobs = {
        job("big-low", 0.6, 0), job("big-high", 0.6, 5),
        job("small", 0.3, 1), job("effort", 0.0, 0)};
    const std::vector<IterationCost> costs = {cost(1.0), cost(1.0),
                                              cost(1.0), cost(1.0)};
    const AdmissionDecision d =
        decideAdmission(jobs, costs, AdmissionOptions{});
    EXPECT_DOUBLE_EQ(d.totalDemand, 1.5);
    // Priority 5 admits first (0.6), then "small" (0.9); the
    // low-priority 0.6 would hit 1.5 and is shed; best effort rides.
    EXPECT_FALSE(d.admitted[0]);
    EXPECT_TRUE(d.admitted[1]);
    EXPECT_TRUE(d.admitted[2]);
    EXPECT_TRUE(d.admitted[3]) << "zero-demand tenants always admit";
    EXPECT_EQ(d.admittedCount, 3u);
    EXPECT_EQ(d.rejectedCount, 1u);
    EXPECT_DOUBLE_EQ(d.admittedDemand, 0.9);

    // A tighter cap sheds more; a looser one admits everything.
    AdmissionOptions tight;
    tight.utilizationCap = 0.5;
    EXPECT_EQ(decideAdmission(jobs, costs, tight).admittedCount, 2u)
        << "only 'small' (0.3) and the best-effort tenant fit 0.5";
    AdmissionOptions loose;
    loose.utilizationCap = 2.0;
    EXPECT_EQ(decideAdmission(jobs, costs, loose).rejectedCount, 0u);

    // Deadline targets demand steps*cost over their window.
    TenantJob dl;
    dl.name = "deadline";
    dl.model = "SqueezeNet";
    dl.steps = 10;
    dl.qosDeadlineSec = 5.0;
    EXPECT_DOUBLE_EQ(qosUtilizationDemand(dl, cost(0.25)), 0.5);
}

} // namespace
} // namespace diva
