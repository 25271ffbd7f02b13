/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * histograms behind one opt-in switch. Instrumentation sites are free
 * when the registry is disabled (one relaxed atomic load) and cheap
 * when enabled: counter and histogram updates land in a thread-local
 * shard guarded by a per-shard mutex that only the snapshot path ever
 * contends on.
 *
 * Determinism contract: a snapshot must be byte-identical for the
 * same simulated work regardless of worker-thread count or shard
 * merge order. Counters are commutative integer sums. Histograms are
 * obs::QuantileSketch instances (16 sub-buckets per octave, <= 6.25%
 * relative error): integer bucket counts plus exact min/max, all
 * order-independent -- deliberately no floating-point sum or mean,
 * which would depend on merge order. Gauges are plain last-write
 * values and must only be set from sequential code (CLI setup,
 * epoch barriers); concurrent setGauge calls would race the "last"
 * write and break the contract.
 *
 * Shards are owned by the registry and outlive the threads that fill
 * them: short-lived worker threads (one fleet epoch, one sweep run)
 * abandon their shard at exit and its data stays mergeable.
 */

#ifndef DIVA_OBS_METRICS_H
#define DIVA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/sketch.h"

namespace diva
{
namespace obs
{

/** Deterministic, name-sorted view of the registry at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, QuantileSketch> histograms;

    /** Pretty-printed JSON ("diva-metrics-v2"), byte-stable. */
    void writeJson(std::ostream &os) const;
};

class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Turn collection on/off; off (the default) makes every
     *  instrumentation site a single relaxed load. */
    void enable(bool on);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Add `delta` to the named counter (thread-safe, commutative). */
    void addCounter(const std::string &name, std::uint64_t delta = 1);

    /** Set the named gauge. Sequential code only -- see file header. */
    void setGauge(const std::string &name, double value);

    /** Record `count` samples of `value` into the named histogram
     *  (thread-safe; NaN is skipped). */
    void recordValue(const std::string &name, double value,
                     std::uint64_t count = 1);

    /** Merge every shard into one name-sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Drop all recorded data (shards and gauges); stays enabled. */
    void reset();

  private:
    MetricsRegistry() = default;
    ~MetricsRegistry();

    struct Shard;
    Shard &localShard();

    std::atomic<bool> enabled_{false};

    mutable std::mutex mutex_; ///< guards shards_ and gauges_
    std::deque<std::unique_ptr<Shard>> shards_;
    std::map<std::string, double> gauges_;
};

} // namespace obs
} // namespace diva

#endif // DIVA_OBS_METRICS_H
