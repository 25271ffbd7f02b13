#include "arrivals/trace.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <fstream>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>

#include "common/format.h"
#include "common/parse.h"

namespace diva
{

namespace
{

/** Columns of the canonical CSV form, in its column order. */
enum class Column
{
    kName,
    kModel,
    kScale,
    kBatch,
    kMicrobatch,
    kAlgorithm,
    kArrival,
    kDepart,
    kPriority,
    kSteps,
    kQosSps,
    kQosDeadline,
};

/** Column names, indexed by Column. */
const char *const kColumns[] = {
    "name",     "model",    "scale", "batch",     "microbatch",
    "algorithm", "arrival_s", "depart_s", "priority", "steps",
    "qos_sps",  "qos_deadline_s",
};
constexpr std::size_t kNumColumns =
    sizeof(kColumns) / sizeof(*kColumns);
static_assert(kNumColumns == std::size_t(Column::kQosDeadline) + 1);

std::string
lower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** ASCII case-insensitive equality; `lowered` is already lower-case. */
bool
equalsLower(std::string_view text, std::string_view lowered)
{
    return text.size() == lowered.size() &&
           std::equal(text.begin(), text.end(), lowered.begin(),
                      [](char a, char b) {
                          return std::tolower(
                                     static_cast<unsigned char>(a)) == b;
                      });
}

/** The column a (case-insensitive) header cell or JSONL key names. */
std::optional<Column>
columnFromName(std::string_view text)
{
    for (std::size_t c = 0; c < kNumColumns; ++c)
        if (equalsLower(text, kColumns[c]))
            return Column(c);
    return std::nullopt;
}

/** Apply one cell of `column` to `job`; "" on success. */
std::string
applyField(TenantJob &job, Column column, std::string_view text)
{
    const std::string_view name = kColumns[std::size_t(column)];
    switch (column) {
      case Column::kName:
        job.name = text;
        return "";
      case Column::kModel:
        if (text.empty())
            return "model must not be empty";
        job.model = text;
        return "";
      case Column::kAlgorithm:
        if (text.empty()) {
            job.algorithm = TrainingAlgorithm::kDpSgdR;
        } else if (const auto algo = algorithmFromName(text)) {
            job.algorithm = *algo;
        } else {
            return "unknown algorithm '" + std::string(text) + "'";
        }
        return "";
      case Column::kScale:
      case Column::kBatch:
      case Column::kMicrobatch:
      case Column::kPriority:
      case Column::kSteps: {
        // Bounded parses: an out-of-range cell rejects the trace
        // instead of silently wrapping into the int-typed fields.
        const long long lo = column == Column::kPriority ? INT_MIN : 0;
        const long long hi =
            column == Column::kSteps ? LLONG_MAX : INT_MAX;
        const std::optional<long long> v =
            parseBoundedIntText(text, lo, hi);
        if (!v)
            return std::string(name) + " must be an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + std::string(text) + "'";
        if (column == Column::kScale)
            job.modelScale = int(*v);
        else if (column == Column::kBatch)
            job.batch = int(*v);
        else if (column == Column::kMicrobatch)
            job.microbatch = int(*v);
        else if (column == Column::kPriority)
            job.priority = int(*v);
        else
            job.steps = std::uint64_t(*v);
        return "";
      }
      case Column::kArrival:
      case Column::kDepart:
      case Column::kQosSps:
      case Column::kQosDeadline: {
        const std::optional<double> parsed = parseDoubleText(text);
        if (!parsed || *parsed < 0.0)
            return std::string(name) +
                   " must be a finite number >= 0, got '" +
                   std::string(text) + "'";
        const double v = *parsed;
        if (column == Column::kArrival)
            job.arrivalSec = v;
        else if (column == Column::kDepart)
            job.departSec = v;
        else if (column == Column::kQosSps)
            job.qosStepsPerSec = v;
        else
            job.qosDeadlineSec = v;
        return "";
      }
    }
    return "";
}

/** Bytes left in `is`, or 0 when the stream cannot seek (a pipe). */
std::size_t
remainingBytes(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return 0;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    return end > here ? std::size_t(end - here) : 0;
}

ArrivalTrace
failTrace(std::string *error, std::size_t line, const std::string &msg)
{
    std::ostringstream oss;
    oss << "line " << line << ": " << msg;
    *error = oss.str();
    return {};
}

/**
 * Minimal flat-object JSON scanner for one JSONL line: returns the
 * (key, raw value text) pairs of a single-level object. Strings lose
 * their quotes (escapes \" \\ only); nested containers reject.
 */
bool
scanFlatJson(const std::string &line,
             std::vector<std::pair<std::string, std::string>> *fields,
             std::string *msg)
{
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parseString = [&](std::string *out) {
        if (line[i] != '"')
            return false;
        ++i;
        out->clear();
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\' && i + 1 < line.size()) {
                ++i;
                if (line[i] == '"')
                    *out += '"';
                else if (line[i] == '\\')
                    *out += '\\';
                else {
                    *out += '\\';
                    *out += line[i];
                }
            } else {
                *out += line[i];
            }
            ++i;
        }
        if (i >= line.size())
            return false;
        ++i; // closing quote
        return true;
    };
    skipWs();
    if (i >= line.size() || line[i] != '{') {
        *msg = "expected a JSON object";
        return false;
    }
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}')
        return true; // empty object
    for (;;) {
        skipWs();
        std::string key;
        if (i >= line.size() || !parseString(&key)) {
            *msg = "expected a quoted key";
            return false;
        }
        skipWs();
        if (i >= line.size() || line[i] != ':') {
            *msg = "expected ':' after key '" + key + "'";
            return false;
        }
        ++i;
        skipWs();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!parseString(&value)) {
                *msg = "unterminated string for key '" + key + "'";
                return false;
            }
        } else if (i < line.size() &&
                   (line[i] == '{' || line[i] == '[')) {
            *msg = "nested values are not supported (key '" + key +
                   "')";
            return false;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                value += line[i++];
            while (!value.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       value.back())))
                value.pop_back();
            if (value.empty()) {
                *msg = "missing value for key '" + key + "'";
                return false;
            }
        }
        fields->emplace_back(key, value);
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        *msg = "expected ',' or '}'";
        return false;
    }
}

} // namespace

std::string
ArrivalTrace::validationError(bool wallLimited) const
{
    if (jobs.empty())
        return "trace has no tenant sessions";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // TenantJob::validationError already accepts unbounded steps
        // when the session has a departure time.
        const std::string err = jobs[i].validationError(wallLimited);
        if (!err.empty())
            return "session '" + jobs[i].name + "': " + err;
        if (i > 0 && jobs[i].arrivalSec < jobs[i - 1].arrivalSec)
            return "session '" + jobs[i].name +
                   "': arrivals must be non-decreasing";
    }
    return "";
}

TenantWorkload
ArrivalTrace::workload() const
{
    TenantWorkload mix;
    mix.name = name;
    mix.jobs = jobs;
    return mix;
}

std::string
sessionName(std::size_t index, const std::string &model)
{
    std::string name = "a";
    name += std::to_string(index);
    name += ':';
    name += model;
    return name;
}

std::string
traceCsvHeader()
{
    std::string header;
    for (std::size_t c = 0; c < kNumColumns; ++c) {
        if (c)
            header += ',';
        header += kColumns[c];
    }
    return header;
}

void
writeTraceCsv(std::ostream &os, const ArrivalTrace &trace)
{
    std::string buf = "# trace: " + trace.name + '\n' +
                      traceCsvHeader() + '\n';
    for (const TenantJob &j : trace.jobs) {
        // A row opening with '#' would read back as a comment.
        appendCsvCell(buf, j.name, j.name.starts_with('#'));
        appendCells(buf, j.model, j.modelScale, j.batch, j.microbatch,
                    algorithmName(j.algorithm), j.arrivalSec, j.departSec,
                    j.priority, j.steps, j.qosStepsPerSec,
                    j.qosDeadlineSec);
        buf += '\n';
        flushRows(os, buf);
    }
    flushRows(os, buf, true);
}

ArrivalTrace
loadTraceCsv(std::istream &is, std::string *error)
{
    error->clear();
    ArrivalTrace trace;
    const std::size_t bytes = remainingBytes(is);
    std::string line;
    std::size_t lineno = 0;
    std::vector<Column> columns;
    std::vector<std::string_view> cells;
    while (std::getline(is, line)) {
        ++lineno;
        std::string_view text = line;
        if (!text.empty() && text.back() == '\r')
            text.remove_suffix(1);
        if (text.empty())
            continue;
        if (text[0] == '#') {
            // "# trace: NAME" names the trace; other comments skip.
            constexpr std::string_view tag = "# trace: ";
            if (text.substr(0, tag.size()) == tag)
                trace.name = text.substr(tag.size());
            continue;
        }
        const std::string_view bad = splitCsvCells(
            std::span<char>(line.data(), text.size()), &cells);
        if (!bad.empty())
            return failTrace(error, lineno, std::string(bad));
        if (columns.empty()) {
            // Header row: every column must be known.
            for (std::string_view c : cells) {
                const std::optional<Column> col = columnFromName(c);
                if (!col)
                    return failTrace(error, lineno,
                                     "unknown column '" + std::string(c) +
                                         "'");
                columns.push_back(*col);
            }
            if (std::find(columns.begin(), columns.end(),
                          Column::kModel) == columns.end())
                return failTrace(error, lineno,
                                 "header needs a 'model' column");
            continue;
        }
        if (cells.size() != columns.size())
            return failTrace(error, lineno,
                             "expected " +
                                 std::to_string(columns.size()) +
                                 " cells, got " +
                                 std::to_string(cells.size()));
        // Size the job list once from the first row's length; rows of
        // one trace are near-equal, and untouched capacity costs no RSS.
        if (trace.jobs.empty())
            trace.jobs.reserve(bytes / (line.size() + 1) + 1);
        TenantJob job;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const std::string err = applyField(job, columns[c], cells[c]);
            if (!err.empty())
                return failTrace(error, lineno, err);
        }
        if (job.name.empty())
            job.name = sessionName(trace.jobs.size(), job.model);
        trace.jobs.push_back(std::move(job));
    }
    if (columns.empty())
        return failTrace(error, lineno, "missing header row");
    if (trace.jobs.empty())
        return failTrace(error, lineno, "trace has no tenant sessions");
    return trace;
}

ArrivalTrace
loadTraceJsonl(std::istream &is, std::string *error)
{
    error->clear();
    ArrivalTrace trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        // Skip blank lines and #-comments between records.
        std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::vector<std::pair<std::string, std::string>> fields;
        std::string msg;
        if (!scanFlatJson(line, &fields, &msg))
            return failTrace(error, lineno, msg);
        TenantJob job;
        bool any_known = false;
        for (const auto &[key, value] : fields) {
            if (equalsLower(key, "trace")) {
                // {"trace": "NAME"} records name the trace.
                trace.name = value;
                continue;
            }
            const std::optional<Column> col = columnFromName(key);
            if (!col)
                continue; // tolerate recorded extra metadata
            const std::string err = applyField(job, *col, value);
            if (!err.empty())
                return failTrace(error, lineno, err);
            any_known = true;
        }
        if (!any_known)
            continue; // metadata-only record
        if (job.model.empty())
            return failTrace(error, lineno, "record needs a 'model'");
        if (job.name.empty())
            job.name = sessionName(trace.jobs.size(), job.model);
        trace.jobs.push_back(std::move(job));
    }
    if (trace.jobs.empty())
        return failTrace(error, lineno, "trace has no tenant sessions");
    return trace;
}

ArrivalTrace
loadTraceFile(const std::string &path, std::string *error)
{
    error->clear();
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return {};
    }
    const std::size_t slash = path.find_last_of("/\\");
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    const std::string ext =
        dot == std::string::npos ? "" : lower(base.substr(dot));
    ArrivalTrace trace = ext == ".jsonl" || ext == ".json"
                             ? loadTraceJsonl(in, error)
                             : loadTraceCsv(in, error);
    if (!error->empty())
        return {};
    if (trace.name.empty())
        trace.name = dot == std::string::npos ? base
                                              : base.substr(0, dot);
    return trace;
}

} // namespace diva
