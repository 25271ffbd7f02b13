#include "obs/trace.h"

#include <algorithm>

#include "common/format.h"

namespace diva
{
namespace obs
{

TraceTrack *
TraceSink::track(int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tracks_.find(tid);
    if (it == tracks_.end())
        it = tracks_
                 .emplace(tid, std::make_unique<TraceTrack>(
                                   tid, name, maxEventsPerTrack_))
                 .first;
    return it->second.get();
}

std::uint64_t
TraceSink::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &[tid, track] : tracks_)
        total += track->dropped();
    return total;
}

std::vector<std::pair<std::string, std::uint64_t>>
TraceSink::droppedByTrack() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    rows.reserve(tracks_.size());
    for (const auto &[tid, track] : tracks_)
        rows.emplace_back(track->name(), track->dropped());
    return rows;
}

void
TraceSink::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Merge in track-id order, then stable-sort by timestamp: equal
    // timestamps keep (track id, append order), so the byte stream is
    // independent of which worker thread filled which track when.
    struct Slot
    {
        const TraceEvent *ev;
        int tid;
    };
    std::vector<Slot> slots;
    for (const auto &[tid, track] : tracks_)
        for (const TraceEvent &ev : track->events())
            slots.push_back({&ev, tid});
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot &a, const Slot &b) {
                         return a.ev->tsSec < b.ev->tsSec;
                     });

    os << "{\n\"traceEvents\": [\n";
    const char *sep = "";
    for (const auto &[tid, track] : tracks_) {
        os << sep << "{\"name\": \"thread_name\", \"ph\": \"M\", "
           << "\"pid\": 1, \"tid\": " << tid
           << ", \"args\": {\"name\": \"" << jsonEscape(track->name())
           << "\"}}";
        sep = ",\n";
    }
    for (const Slot &s : slots) {
        const TraceEvent &ev = *s.ev;
        os << sep << "{\"name\": \"" << jsonEscape(ev.name)
           << "\", \"cat\": \"" << jsonEscape(ev.cat) << "\", \"ph\": \""
           << ev.ph << "\", \"ts\": " << jsonNumber(ev.tsSec * 1e6);
        if (ev.ph == 'X')
            os << ", \"dur\": " << jsonNumber(ev.durSec * 1e6);
        if (ev.ph == 'i')
            os << ", \"s\": \"t\""; // instant scope: thread
        os << ", \"pid\": 1, \"tid\": " << s.tid << "}";
        sep = ",\n";
    }
    std::uint64_t totalDropped = 0;
    for (const auto &[tid, track] : tracks_)
        totalDropped += track->dropped();
    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"droppedEvents\": "
       << totalDropped << "\n}\n";
}

} // namespace obs
} // namespace diva
