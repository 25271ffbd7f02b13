#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/format.h"

namespace perfbench
{

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles, method="exclusive": cut point i of 4 sits
    // at position i * (n + 1) / 4 of the 1-based sorted sample.
    double cut[3];
    const std::size_t m = n + 1;
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = double(i * m) - double(j * 4);
        cut[i - 1] =
            (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    q.q1 = cut[0];
    q.median = cut[1];
    q.q3 = cut[2];
    return q;
}

namespace
{

constexpr std::uint64_t kSeed = 0x243F6A8885A308D3ull;
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

std::uint64_t
absorbWord(std::uint64_t state, std::uint64_t word)
{
    state = (state ^ word) * kMul;
    return state ^ (state >> 29);
}

std::uint64_t
absorbBytes(std::uint64_t state, const char *p, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        state = absorbWord(state, w);
    }
    if (i < n) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, n - i);
        state = absorbWord(state, w);
    }
    return state;
}

std::uint64_t
finalize(std::uint64_t state, std::uint64_t length)
{
    // splitmix64's finalizer over the state and the length.
    std::uint64_t z = absorbWord(state, length);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

HashSink::HashSink() : buf_(kBlock), state_(kSeed), os_(this)
{
    setp(buf_.data(), buf_.data() + buf_.size());
}

void
HashSink::absorbBlock()
{
    const std::size_t n = std::size_t(pptr() - pbase());
    state_ = absorbBytes(state_, pbase(), n);
    absorbed_ += n;
    setp(buf_.data(), buf_.data() + buf_.size());
}

HashSink::int_type
HashSink::overflow(int_type ch)
{
    if (pptr() == epptr())
        absorbBlock();
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
        sputc(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
}

std::streamsize
HashSink::xsputn(const char *s, std::streamsize n)
{
    std::streamsize done = 0;
    while (done < n) {
        if (pptr() == epptr())
            absorbBlock();
        const std::streamsize room =
            std::min<std::streamsize>(epptr() - pptr(), n - done);
        std::memcpy(pptr(), s + done, std::size_t(room));
        pbump(int(room));
        done += room;
    }
    return n;
}

std::uint64_t
HashSink::bytes() const
{
    return absorbed_ + std::uint64_t(pptr() - pbase());
}

std::uint64_t
HashSink::digest() const
{
    const std::size_t tail = std::size_t(pptr() - pbase());
    return finalize(absorbBytes(state_, pbase(), tail), bytes());
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
heapBytesInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return double(mi.uordblks) + double(mi.hblkhd);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

namespace
{

/** Keeps the reference result observable, so no pass is elided. */
volatile double referenceSink = 0.0;

} // namespace

double
referencePassSeconds()
{
    constexpr int kRecords = 12000;
    constexpr std::size_t kBins = 4096;
    static std::vector<char> text(std::size_t(kRecords) * 64 + 1);
    static std::vector<double> values(2 * std::size_t(kRecords));
    static std::vector<int> bins(kBins);

    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 12345;
    std::size_t used = 0;
    for (int i = 0; i < kRecords; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const double a = double(x >> 11) * 0x1.0p-53 * 1000.0;
        const double b = double((x >> 7) & 0xffff) / 7.0;
        used += std::size_t(std::snprintf(
            text.data() + used, text.size() - used, "s%d,%.9g,%.6f,%llu\n",
            i, a, b, (unsigned long long)(x >> 40)));
    }
    const char *p = text.data();
    for (std::size_t i = 0; i < values.size(); i += 2) {
        char *end = nullptr;
        values[i] = std::strtod(std::strchr(p, ',') + 1, &end);
        values[i + 1] = std::strtod(end + 1, &end);
        p = std::strchr(end, '\n') + 1;
    }
    std::sort(values.begin(), values.end());
    std::fill(bins.begin(), bins.end(), 0);
    for (double v : values)
        ++bins[std::size_t(v) % kBins];
    const double seconds = secondsBetween(t0, Clock::now());
    referenceSink = values[values.size() / 2] + double(bins[7]);
    return seconds;
}

const std::vector<Layer> &
allLayers()
{
    static const std::vector<Layer> layers = {
        Layer::kBench,     Layer::kArrivals, Layer::kCostModel,
        Layer::kSweep,     Layer::kServeCore, Layer::kTenant,
        Layer::kFleet,     Layer::kObs};
    return layers;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kBench:
        return "bench";
      case Layer::kArrivals:
        return "arrivals";
      case Layer::kCostModel:
        return "cost_model";
      case Layer::kSweep:
        return "sweep";
      case Layer::kServeCore:
        return "serve_core";
      case Layer::kTenant:
        return "tenant";
      case Layer::kFleet:
        return "fleet";
      case Layer::kObs:
        return "obs";
    }
    return "?";
}

Tracer::Tracer() : t0_(Clock::now()) {}

int
Tracer::open(std::string name, Layer layer)
{
    Span s;
    s.name = std::move(name);
    s.layer = layer;
    s.start = secondsBetween(t0_, Clock::now());
    s.end = s.start;
    s.parent = stack_.empty() ? -1 : stack_.back();
    const int id = add(std::move(s));
    stack_.push_back(id);
    return id;
}

double
Tracer::close(int id)
{
    Span &s = spans_[std::size_t(id)];
    s.end = secondsBetween(t0_, Clock::now());
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
    return s.end - s.start;
}

int
Tracer::add(Span span)
{
    spans_.push_back(std::move(span));
    return int(spans_.size()) - 1;
}

namespace
{

/** How the library's Profiler phases nest, and whose layer each is. */
struct PhaseInfo
{
    const char *name;
    const char *parent; ///< enclosing phase, when that phase ran
    Layer layer;
};

constexpr PhaseInfo kPhases[] = {
    {"disk_preload", nullptr, Layer::kSweep},
    {"fleet_pricing", nullptr, Layer::kSweep},
    {"scenario_eval", "fleet_pricing", Layer::kCostModel},
    {"plan_build", "scenario_eval", Layer::kCostModel},
    {"fleet_run", nullptr, Layer::kFleet},
    {"placement", "fleet_run", Layer::kFleet},
    {"epoch_serve", "fleet_run", Layer::kServeCore},
    {"fleet_controls", "fleet_run", Layer::kFleet},
    {"fleet_assemble", nullptr, Layer::kFleet},
    {"assemble_tenants", "fleet_assemble", Layer::kFleet},
    {"assemble_pods", "fleet_assemble", Layer::kFleet},
    {"assemble_telemetry", "fleet_assemble", Layer::kObs},
    {"assemble_agg", "fleet_assemble", Layer::kFleet},
};

} // namespace

void
Tracer::foldPhases(
    int id,
    const std::map<std::string, diva::obs::Profiler::Phase> &phases)
{
    std::map<std::string, int> placed;  // phase -> span id
    std::map<int, double> cursor;       // parent span -> next start
    auto addChild = [&](const std::string &name, int parent,
                        Layer layer, double seconds) {
        const Span &p = spans_[std::size_t(parent)];
        const double start =
            cursor.count(parent) ? cursor[parent] : p.start;
        Span s;
        s.name = name;
        s.layer = layer;
        s.start = start;
        s.end = std::min(start + seconds, p.end);
        s.parent = parent;
        cursor[parent] = s.end;
        placed[name] = add(std::move(s));
    };
    for (const PhaseInfo &info : kPhases) {
        const auto it = phases.find(info.name);
        if (it == phases.end())
            continue;
        const auto parent =
            info.parent ? placed.find(info.parent) : placed.end();
        addChild(info.name, parent == placed.end() ? id : parent->second,
                 info.layer, it->second.seconds);
    }
    for (const auto &[name, phase] : phases)
        if (!placed.count(name))
            addChild(name, id, spans_[std::size_t(id)].layer,
                     phase.seconds);
}

std::map<Layer, double>
Tracer::selfTimes(const std::string &root, std::size_t first) const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[std::size_t(spans_[i].parent)].push_back(int(i));

    std::map<Layer, double> self;
    std::vector<int> todo;
    for (std::size_t i = first; i < spans_.size(); ++i)
        if (spans_[i].parent < 0 && spans_[i].name == root)
            todo.push_back(int(i));
    while (!todo.empty()) {
        const int id = todo.back();
        todo.pop_back();
        const Span &s = spans_[std::size_t(id)];
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> cover;
        for (int c : children[std::size_t(id)]) {
            const Span &k = spans_[std::size_t(c)];
            cover.emplace_back(std::max(k.start, s.start),
                               std::min(k.end, s.end));
            todo.push_back(c);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : cover) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\""
           << diva::jsonEscape(s.name) << "\",\"cat\":\""
           << layerName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,"
           << "\"tid\":1,\"ts\":" << diva::jsonNumber(s.start * 1e6)
           << ",\"dur\":" << diva::jsonNumber((s.end - s.start) * 1e6)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name, Layer layer,
                       bool foldProfile)
    : tracer_(tracer), fold_(foldProfile)
{
    if (!tracer_)
        return;
    if (fold_)
        diva::obs::Profiler::instance().reset();
    id_ = tracer_->open(name, layer);
}

ScopedSpan::~ScopedSpan()
{
    close();
}

double
ScopedSpan::close()
{
    if (!tracer_ || id_ < 0)
        return seconds_;
    seconds_ = tracer_->close(id_);
    if (fold_)
        tracer_->foldPhases(id_,
                            diva::obs::Profiler::instance().phases());
    id_ = -1;
    return seconds_;
}

} // namespace perfbench
