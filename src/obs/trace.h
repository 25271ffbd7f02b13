/**
 * @file
 * Sim-time trace emitter producing Chrome trace-event JSON (the
 * format chrome://tracing and Perfetto both load). Spans and instant
 * events are timestamped in *simulated* seconds, never wall-clock, so
 * a trace of the same run is byte-identical regardless of
 * --threads.
 *
 * Concurrency model: a TraceSink owns one TraceTrack per logical
 * timeline (pod, tenant executor, cluster control plane). Track
 * creation is serialized; each track is then SINGLE-WRITER -- only
 * the thread simulating that timeline appends to it. The bounded-
 * event cap is therefore per track (a shared atomic cap would make
 * which events get dropped a race). write() merges tracks in id
 * order and stable-sorts by timestamp, so the output byte stream is
 * a pure function of the simulated work.
 */

#ifndef DIVA_OBS_TRACE_H
#define DIVA_OBS_TRACE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace diva
{
namespace obs
{

/** One Chrome trace event ("X" complete span or "i" instant). */
struct TraceEvent
{
    double tsSec = 0.0;  ///< simulated start time
    double durSec = 0.0; ///< span length (0 for instants)
    char ph = 'X';
    std::string name;
    const char *cat = "";
};

/** Single-writer event list for one timeline. */
class TraceTrack
{
  public:
    TraceTrack(int tid, std::string name, std::size_t maxEvents)
        : tid_(tid), name_(std::move(name)), maxEvents_(maxEvents)
    {
    }

    int
    tid() const
    {
        return tid_;
    }

    const std::string &
    name() const
    {
        return name_;
    }

    /** Append a complete span [t0, t1). */
    void
    span(double t0, double t1, std::string name, const char *cat)
    {
        push({t0, t1 - t0, 'X', std::move(name), cat});
    }

    /** Append an instant event at t. */
    void
    instant(double t, std::string name, const char *cat)
    {
        push({t, 0.0, 'i', std::move(name), cat});
    }

    /** Events discarded once the per-track cap was reached. */
    std::uint64_t
    dropped() const
    {
        return dropped_;
    }

    const std::vector<TraceEvent> &
    events() const
    {
        return events_;
    }

  private:
    void
    push(TraceEvent ev)
    {
        if (events_.size() >= maxEvents_) {
            ++dropped_;
            return;
        }
        events_.push_back(std::move(ev));
    }

    int tid_;
    std::string name_;
    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> events_;
};

class TraceSink
{
  public:
    /** Default per-track cap; ~1M-session runs stay well bounded. */
    static constexpr std::size_t kDefaultMaxEventsPerTrack = 1u << 20;

    explicit TraceSink(
        std::size_t maxEventsPerTrack = kDefaultMaxEventsPerTrack)
        : maxEventsPerTrack_(maxEventsPerTrack)
    {
    }

    /**
     * The track for `tid`, created with `name` on first request.
     * Creation is serialized; the returned pointer is stable and the
     * caller (one thread at a time) owns all subsequent appends.
     */
    TraceTrack *track(int tid, const std::string &name);

    /** Total events dropped across all tracks. */
    std::uint64_t dropped() const;

    /** (track name, dropped count) per track, in track-id order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    droppedByTrack() const;

    /**
     * Emit the whole trace as Chrome trace-event JSON: thread_name
     * metadata, then every event in (timestamp, track id, append
     * order) order with microsecond sim-time stamps. Adds a
     * "droppedEvents" top-level field (Perfetto ignores unknown
     * top-level keys).
     */
    void write(std::ostream &os) const;

  private:
    mutable std::mutex mutex_; ///< guards tracks_ map shape only
    std::size_t maxEventsPerTrack_;
    std::map<int, std::unique_ptr<TraceTrack>> tracks_;
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_TRACE_H
