/**
 * @file
 * Persistent on-disk sweep result cache.
 *
 * A DiskCache is a versioned Scenario::key() -> ScenarioResult store
 * backed by one append-only text file, so repeated diva_sweep
 * invocations skip already-simulated scenarios. Design points:
 *
 *  - Versioned: the file starts with a format header; a file written
 *    by an incompatible version is ignored wholesale and rewritten on
 *    the next append, never half-parsed.
 *  - Corruption-tolerant load: every record carries an FNV-1a checksum
 *    of its payload; torn, truncated, or edited lines are counted and
 *    skipped, never fatal.
 *  - Atomic append-on-write: fresh records are serialized into one
 *    buffer and appended with a single O_APPEND write(), so a crashed
 *    writer can lose at most its own tail record (which the checksum
 *    then rejects on load) and concurrent processes sharing a store
 *    interleave between batches, never inside a record. The in-memory
 *    view is updated only after the bytes reach the file, so a failed
 *    write is retried by the next append instead of silently dropped.
 *  - Failed results are never persisted: a transient failure must be
 *    retried on the next run, not replayed from the cache.
 *  - mmap-backed preload: the store is mapped read-only (one buffered
 *    read where mmap is unavailable) and indexed by scanning
 *    string_views over the mapping, and the preload reports a
 *    one-line summary (entries loaded, corrupt lines skipped, bytes
 *    mapped) to stderr instead of silently dropping corrupt lines.
 *
 * Only simulation *outputs* are stored; the scenario itself is
 * identified by its key, and the runner re-attaches the
 * requester's Scenario on every hit.
 */

#ifndef DIVA_SWEEP_DISK_CACHE_H
#define DIVA_SWEEP_DISK_CACHE_H

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/scenario.h"

namespace diva
{

/** On-disk Scenario::key() -> ScenarioResult store. */
class DiskCache
{
  public:
    /**
     * Bump when the record layout or the key changes; old files are
     * discarded. Version 2 keys on Scenario::key(), whose doubles
     * round-trip: a version-1 key wrote them at 6 significant digits,
     * so one v1 record could stand for several design points.
     */
    static constexpr int kFormatVersion = 2;

    /**
     * Open (creating if needed) the cache under `dir`. The directory
     * is created recursively; the store lives in one file inside it.
     * Loads every valid record eagerly.
     */
    explicit DiskCache(const std::string &dir);

    /** Full path of the backing file. */
    const std::string &filePath() const { return path_; }

    /** Loaded (and since-appended) entry count. */
    std::size_t size() const { return entries_.size(); }

    bool contains(const std::string &key) const
    {
        return entries_.count(key) != 0;
    }

    /** All entries; result Scenario fields are default-constructed. */
    const std::unordered_map<std::string, ScenarioResult> &entries() const
    {
        return entries_;
    }

    /** Lines rejected during load (bad checksum, truncation, ...). */
    std::size_t corruptLinesSkipped() const { return corrupt_; }

    /**
     * Persist the given results. Entries whose key is already stored,
     * whose result has `error` set, or whose key contains characters
     * the line format cannot carry are skipped. Returns the number of
     * records actually written.
     */
    std::size_t
    append(const std::vector<std::pair<std::string, ScenarioResult>> &fresh);

    /**
     * Default cache directory: $DIVA_CACHE_DIR, else
     * $XDG_CACHE_HOME/diva, else $HOME/.cache/diva, else ./.diva-cache.
     */
    static std::string defaultDir();

  private:
    void load();

    std::string path_;
    std::unordered_map<std::string, ScenarioResult> entries_;
    std::size_t corrupt_ = 0;
    /** Set when the existing file has a foreign header: the next
     *  append rewrites the whole file instead of appending to it. */
    bool rewrite_needed_ = false;
    /** The file ends in a torn record: the next append starts a line. */
    bool torn_tail_ = false;
};

} // namespace diva

#endif // DIVA_SWEEP_DISK_CACHE_H
