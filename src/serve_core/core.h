#pragma once

/**
 * @file
 * Event-driven serve core shared by the tenant serve loop
 * (src/tenant/serve.cc) and the fleet engine's per-pod simulation
 * (src/fleet/engine.cc).
 *
 * The core replaces the old per-quantum all-tenant scan loops with a
 * logical priority queue of typed events:
 *
 *   kArrival       a placed task's arrival time is reached
 *                  (sorted arrival list consumed by a cursor)
 *   kGateDue       an open-loop / migration-gated task's next step
 *                  comes due (lazily-invalidated min-heap)
 *   kQuantumExpiry the running task's quantum ends and a fresh
 *                  scheduling decision is due (implicit in the
 *                  dispatch loop; coalesced away when it would be a
 *                  guaranteed no-op re-pick)
 *   kControlEpoch  the caller's epoch boundary `t1` (the fleet's
 *                  budget / rebalance / placement rounds run between
 *                  epochs; the tenant loop passes one infinite epoch)
 *   kRunEnd        the wall budget, or no event left to serve
 *
 * Ready tasks sit in a `ReadySet` (a sorted small-vector with
 * std::set<ReadyKey> ordering) whose first element is always the
 * policy's pick (FIFO: arrival; priority:
 * (-priority, arrival); EDF: (next deadline, arrival); round-robin: a
 * monotone enqueue sequence number) with the task index as the final
 * tie break.  Dispatching pops the pick, runs up to one quantum of
 * iterations, and re-enqueues / gates / retires the task.
 *
 * The multi-quantum advance: when the quantum expires with no other
 * ready task and no promotable event, re-enqueue + promote + re-pick
 * is a guaranteed no-op that would hand the engine straight back to
 * the same task.  The core skips that scheduler round trip and keeps
 * stepping (counted in `Counters::coalescedQuanta`).  Time still
 * accumulates serially, one `now += stepSeconds` per iteration, so
 * every emitted double is bit-identical to the one-quantum-at-a-time
 * loops this file replaced.
 *
 * The two historical loops differ in small, output-visible ways
 * (comparator forms, preemption windows, gating conditions); those
 * differences are preserved behind `Config::mode` rather than silently
 * unified -- byte-identical CSV/JSON output is a hard contract here.
 *
 * Clients provide task scalars, costs, and billing through a duck-typed
 * interface (see `runUntil` for the expected members).  Cross-executor
 * safety: every staleness check calls `client.owns(ex, idx)` *first*,
 * because ownership is only written at sequential epoch boundaries and
 * is therefore race-free to read while another executor concurrently
 * mutates the task's generation or state.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/small_vector.h"
#include "tenant/scheduler.h"

namespace diva
{
namespace serve_core
{

constexpr double kEps = 1e-9;
constexpr double kInfSec = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoTask = std::size_t(-1);

enum class EventType : std::uint8_t
{
    kNone,
    kArrival,
    kGateDue,
    kQuantumExpiry,
    kControlEpoch,
    kRunEnd,
};

/** One entry of the logical event queue, as seen by the idle path. */
struct Event
{
    EventType type = EventType::kNone;
    double atSec = kInfSec;
    std::uint32_t idx = 0;
};

/**
 * Composite ordering key of the ready set.  FIFO: (arrival); priority:
 * (-priority, arrival); EDF: (next deadline, arrival); round-robin
 * uses a monotone sequence number instead -- with the task index as
 * the final tie break, so the first element of the set is always the
 * policy's pick.
 */
struct ReadyKey
{
    double k1 = 0.0;
    double k2 = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;

    bool operator<(const ReadyKey &o) const
    {
        if (k1 != o.k1)
            return k1 < o.k1;
        if (k2 != o.k2)
            return k2 < o.k2;
        if (seq != o.seq)
            return seq < o.seq;
        return idx < o.idx;
    }
};

/** Lazily-invalidated entry of an executor's gated-until min-heap. */
struct GateEntry
{
    double dueSec = 0.0;
    std::uint32_t idx = 0;
    std::uint64_t gen = 0;

    bool operator>(const GateEntry &o) const
    {
        if (dueSec != o.dueSec)
            return dueSec > o.dueSec;
        if (idx != o.idx)
            return idx > o.idx;
        return gen > o.gen;
    }
};

enum class TaskState : std::uint8_t
{
    kPending,   // placed, waiting for its arrival time
    kReady,     // in its executor's ready set
    kGated,     // waiting for its next due time (open loop / migration)
    kSuspended, // preempted by the caller (fleet energy budget)
    kDone,      // service over (completed, departed, starved, rejected)
};

/**
 * The ready set: a sorted small-vector ordered exactly like the
 * std::set<ReadyKey> it replaced (operator<, first element = the
 * policy's pick), with the first 8 entries stored inline in the
 * executor.  Most executors hold a handful of runnable tasks, so a
 * scheduling transition is a memmove within one cache line instead of
 * a red-black-tree node allocation; the schedule it produces is
 * element-for-element identical, which the golden serve-core byte
 * fixtures hold it to.
 */
class ReadySet
{
  public:
    using iterator = ReadyKey *;

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    iterator begin() { return keys_.begin(); }
    iterator end() { return keys_.end(); }

    iterator lower_bound(const ReadyKey &k)
    {
        return std::lower_bound(keys_.begin(), keys_.end(), k);
    }

    void insert(const ReadyKey &k) { keys_.insert(lower_bound(k), k); }

    /** Remove `k` if present (std::set::erase(key) semantics). */
    void erase(const ReadyKey &k)
    {
        const iterator it = lower_bound(k);
        if (it != keys_.end() && !(k < *it))
            keys_.erase(it);
    }

    iterator erase(iterator it) { return keys_.erase(it); }

  private:
    SmallVector<ReadyKey, 8> keys_;
};

/**
 * The gated-until min-heap, replacing std::priority_queue<GateEntry,
 * vector, greater<>> with the same std::push_heap/std::pop_heap calls
 * over inline small-vector storage -- the pop order (and therefore
 * every emitted byte) is unchanged, but a steady-state executor never
 * touches the allocator.
 */
class GatedHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const GateEntry &top() const { return heap_.front(); }

    void push(const GateEntry &e)
    {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(),
                       std::greater<GateEntry>());
    }

    void pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<GateEntry>());
        heap_.pop_back();
    }

  private:
    SmallVector<GateEntry, 8> heap_;
};

/** Scheduling state the core owns for each task. */
struct TaskCore
{
    TaskState state = TaskState::kPending;
    /** Bumped whenever the task leaves a queue, invalidating stale
     *  gated-heap entries that still carry the old generation. */
    std::uint64_t gen = 0;
    /** The key under which the task sits in ready (state kReady). */
    ReadyKey readyKey;

    std::uint64_t done = 0;
    std::uint64_t metDeadlines = 0;
    double lastCompletionSec = 0.0;
    bool completed = false;
    double completionSec = 0.0;
};

/** Per-executor event accounting, surfaced to the perf benches. */
struct Counters
{
    std::uint64_t steps = 0;
    std::uint64_t dispatches = 0;
    /** Quantum expiries absorbed without a scheduler round trip. */
    std::uint64_t coalescedQuanta = 0;
    std::uint64_t promotions = 0; // arrival + gate-due events served
    std::uint64_t idleJumps = 0;
    std::uint64_t switches = 0;
    std::uint64_t retired = 0;

    /** Discrete events the core processed (for events/sec rates). */
    std::uint64_t events() const
    {
        return dispatches + coalescedQuanta + promotions + idleJumps +
               retired;
    }

    Counters &operator+=(const Counters &o)
    {
        steps += o.steps;
        dispatches += o.dispatches;
        coalescedQuanta += o.coalescedQuanta;
        promotions += o.promotions;
        idleJumps += o.idleJumps;
        switches += o.switches;
        retired += o.retired;
        return *this;
    }
};

/** One serving executor (the whole engine for the tenant loop, one pod
 *  for the fleet).  Epochs touch only their own executor's state. */
struct Executor
{
    /** Caller-assigned id (the fleet's pod index). */
    std::size_t id = 0;

    double nowSec = 0.0;
    std::size_t last = kNoTask;

    ReadySet ready;
    /** Tasks first placed here, in arrival order (cursor consumed). */
    std::vector<std::uint32_t> arrivals;
    std::size_t arrCursor = 0;
    GatedHeap gated;
    std::uint64_t rrSeq = 0;
    /** Round-robin index-rotation cursor (tenant mode). */
    std::uint32_t rrNext = 0;

    Counters counters;
};

/**
 * Which historical serve loop the engine replays bit for bit.
 *
 * kTenant (src/tenant/serve.cc) differs from kFleet in five ways:
 *  - round robin rotates over task indices (first ready index at or
 *    after the previous pick + 1) instead of enqueue order;
 *  - an arrival only preempts the quantum if it lands strictly after
 *    the current step's start (the fleet preempts on any arrival at
 *    or before `now`);
 *  - the idle jump skips events whose task could never run a step
 *    before its departure;
 *  - no wall-fitting candidate ends the whole run (the fleet retires
 *    unfitting tasks and keeps serving);
 *  - boundary comparisons use the wall-based forms
 *    (`wall - now <= eps`) instead of the fleet's epoch forms
 *    (`now + eps >= t1`): algebraically equal, bitwise not.
 *
 * Only the all-on and all-off combinations of the five are used, so
 * they are one field, not five independent switches.  None of the
 * five can be dropped from kTenant either: flipping each one alone
 * changes diva_serve / diva_sweep output bytes on a seeded replay
 * corpus (the index rotation, idle skip and wall forms in dozens of
 * runs, the wall-fit run end in a few) or, for the strict preemption
 * window, the schedule of a crafted case; test_serve_core pins every
 * one of them.
 */
enum class Mode : std::uint8_t
{
    kFleet,
    kTenant,
};

struct Config
{
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    std::uint64_t quantumIters = 1;
    /** Wall-clock budget in simulated seconds; 0 = unbounded. */
    double wallLimitSec = 0.0;
    Mode mode = Mode::kFleet;
    /** Rate-target tasks gate on their next due time.  The fleet
     *  always gates; the tenant loop only under --steps 0 replay. */
    bool rateGates = true;

    /** Test/debug: take the multi-quantum fast path.  Off forces a
     *  full scheduler round trip at every quantum expiry; the
     *  schedule, clocks and billing must be bit-identical either way
     *  (test_serve_core holds the core to that), only the
     *  dispatch/coalesce counters shift. */
    bool coalesce = true;
};

/** Deadline of step `k` (1-based) of task `idx`; +inf if untargeted. */
template <class Client>
inline double
stepDeadlineSec(const Client &c, std::uint32_t idx, std::uint64_t k)
{
    const double rate = c.rateSps(idx);
    if (rate > 0.0)
        return c.arrivalSec(idx) + double(k) / rate;
    const double d = c.qosDeadlineSec(idx);
    if (d > 0.0)
        return d;
    return kInfSec;
}

template <class Client>
inline ReadyKey
makeKey(const Client &c, Executor &ex, const Config &cfg,
        std::uint32_t idx)
{
    ReadyKey key;
    key.idx = idx;
    switch (cfg.policy) {
      case SchedPolicy::kFifo:
        key.k1 = c.arrivalSec(idx);
        break;
      case SchedPolicy::kPriority:
        key.k1 = -double(c.priority(idx));
        key.k2 = c.arrivalSec(idx);
        break;
      case SchedPolicy::kEdf:
        key.k1 = stepDeadlineSec(c, idx, c.core(idx).done + 1);
        key.k2 = c.arrivalSec(idx);
        break;
      case SchedPolicy::kRoundRobin:
        if (cfg.mode != Mode::kTenant)
            key.seq = ++ex.rrSeq;
        break;
    }
    return key;
}

/** `kSteady` statically selects the fleet's round-robin enqueue-order
 *  key (see runUntil): the policy switch folds away and the key is
 *  just the next sequence number. */
template <bool kSteady, class Client>
inline void
enqueueReadyT(Client &c, Executor &ex, const Config &cfg,
              std::uint32_t idx)
{
    TaskCore &tc = c.core(idx);
    if constexpr (kSteady) {
        ReadyKey key;
        key.idx = idx;
        key.seq = ++ex.rrSeq;
        tc.readyKey = key;
    } else {
        tc.readyKey = makeKey(c, ex, cfg, idx);
    }
    tc.state = TaskState::kReady;
    ex.ready.insert(tc.readyKey);
}

/** Park `idx` until `dueSec`; a fresh generation invalidates any older
 *  heap entry the task may still have. */
template <class Client>
inline void
gate(Client &c, Executor &ex, std::uint32_t idx, double dueSec)
{
    TaskCore &tc = c.core(idx);
    ++tc.gen;
    tc.state = TaskState::kGated;
    ex.gated.push({dueSec, idx, tc.gen});
}

/** Pull `idx` out of its executor's queues (suspension, migration).
 *  The caller sets the task's next state. */
template <class Client>
inline void
unschedule(Client &c, Executor &ex, std::uint32_t idx)
{
    TaskCore &tc = c.core(idx);
    if (tc.state == TaskState::kReady)
        ex.ready.erase(tc.readyKey);
    ++tc.gen; // invalidates any gated entry
}

template <class Client>
inline void
retire(Client &c, Executor &ex, std::uint32_t idx)
{
    c.core(idx).state = TaskState::kDone;
    ++ex.counters.retired;
    c.onRetire(ex, idx);
}

/** Serve every arrival and gate-due event at or before `ex.nowSec`. */
template <bool kSteady, class Client>
inline void
promoteT(Client &c, Executor &ex, const Config &cfg)
{
    while (ex.arrCursor < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[ex.arrCursor];
        // Stale entries (task migrated, suspended or rejected before
        // its first run here) are consumed without effect.  `owns` is
        // tested first: ownership is only written at sequential epoch
        // boundaries, so that read is race-free even when the task
        // migrated away and its new executor's epoch is concurrently
        // mutating its generation/state.
        if (!c.owns(ex, idx) ||
            c.core(idx).state != TaskState::kPending) {
            ++ex.arrCursor;
            continue;
        }
        if (c.arrivalSec(idx) > ex.nowSec + kEps)
            break;
        ++ex.arrCursor;
        ++ex.counters.promotions;
        enqueueReadyT<kSteady>(c, ex, cfg, idx);
    }
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        // `owns` first -- see the arrival scan for the rationale.
        if (!c.owns(ex, top.idx) ||
            top.gen != c.core(top.idx).gen ||
            c.core(top.idx).state != TaskState::kGated) {
            ex.gated.pop();
            continue;
        }
        if (top.dueSec > ex.nowSec + kEps)
            break;
        const std::uint32_t idx = top.idx;
        ex.gated.pop();
        ++ex.counters.promotions;
        enqueueReadyT<kSteady>(c, ex, cfg, idx);
    }
}

/** Next pending arrival on this executor; +inf if none.  Consumes
 *  stale cursor entries exactly like `promoteT` would. */
template <class Client>
inline double
nextArrivalSec(Client &c, Executor &ex)
{
    while (ex.arrCursor < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[ex.arrCursor];
        if (!c.owns(ex, idx) ||
            c.core(idx).state != TaskState::kPending) {
            ++ex.arrCursor;
            continue;
        }
        return c.arrivalSec(idx);
    }
    return kInfSec;
}

/** Next valid gate-due on this executor; +inf if none. */
template <class Client>
inline double
nextGateDueSec(Client &c, Executor &ex)
{
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        if (!c.owns(ex, top.idx) ||
            top.gen != c.core(top.idx).gen ||
            c.core(top.idx).state != TaskState::kGated) {
            ex.gated.pop();
            continue;
        }
        return top.dueSec;
    }
    return kInfSec;
}

/** Whether a step launched at `atSec` (plus the switch stall the task
 *  would pay under the current `last`) would end past its departure.
 *  `last` cannot change while the task waits, so a blocked verdict is
 *  permanent. */
template <class Client>
inline bool
departBlockedAt(const Client &c, const Executor &ex, std::uint32_t idx,
                double atSec, double switchSec)
{
    const double dep = c.departSec(idx);
    if (!(dep > 0.0))
        return false;
    const double lead =
        (ex.last != kNoTask && ex.last != std::size_t(idx)) ? switchSec
                                                            : 0.0;
    return atSec + lead + c.stepSeconds(ex, idx) > dep + kEps;
}

/**
 * The next wake-up event (arrival or gate-due) on this executor.
 * In tenant mode, events whose task is permanently
 * departure-blocked are skipped: blocked arrivals stay in the list
 * (they still preempt a running quantum when they land), blocked
 * gated tasks are retired on the spot (they can never run again and
 * nothing else observes them).
 */
template <class Client>
inline Event
peekNextEvent(Client &c, Executor &ex, const Config &cfg)
{
    Event best;
    const double sw = c.switchSeconds(ex);
    std::size_t k = ex.arrCursor;
    while (k < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[k];
        if (!c.owns(ex, idx) ||
            c.core(idx).state != TaskState::kPending) {
            if (k == ex.arrCursor)
                ++ex.arrCursor;
            ++k;
            continue;
        }
        const double a = c.arrivalSec(idx);
        if (cfg.mode == Mode::kTenant &&
            departBlockedAt(c, ex, idx, a, sw)) {
            ++k;
            continue; // would run past its departure
        }
        best = {EventType::kArrival, a, idx};
        break;
    }
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        if (!c.owns(ex, top.idx) ||
            top.gen != c.core(top.idx).gen ||
            c.core(top.idx).state != TaskState::kGated) {
            ex.gated.pop();
            continue;
        }
        if (cfg.mode == Mode::kTenant &&
            departBlockedAt(c, ex, top.idx, top.dueSec, sw)) {
            const std::uint32_t idx = top.idx;
            ex.gated.pop();
            retire(c, ex, idx);
            continue;
        }
        if (top.dueSec < best.atSec)
            best = {EventType::kGateDue, top.dueSec, top.idx};
        break;
    }
    return best;
}

/**
 * Serve one executor until the epoch boundary `t1` (pass +inf for an
 * uninterrupted run), the wall budget, or event exhaustion.
 *
 * `Client` provides, duck-typed:
 *   bool   owns(const Executor &, uint32_t idx) const
 *   double arrivalSec(idx) / departSec(idx) / rateSps(idx) /
 *          qosDeadlineSec(idx) const;  uint64_t stepLimit(idx) const;
 *   int    priority(idx) const
 *   double stepSeconds(const Executor &, idx) const
 *   double switchSeconds(const Executor &) const
 *   TaskCore &core(idx)  (and a const overload)
 *   void   onSwitch(Executor &, idx)      -- bill the context switch
 *   void   onStep(Executor &, idx, stepStartSec, latencySec,
 *                 eligibleSec, switchLeadSec)
 *   void   onRetire(Executor &, idx)
 *
 * onStep's eligibleSec is the latency reference point (latencySec ==
 * nowSec - eligibleSec at the call); switchLeadSec is the context
 * switch billed immediately ahead of this step (nonzero only on a
 * dispatch's first step, and only when the dispatch changed tasks).
 * Together they let a client split latencySec into queue-wait /
 * switch / service components without re-deriving engine state.
 *
 * switchSeconds must be constant over one runUntil call (both clients
 * derive it from the executor's fixed hardware type); it is read once.
 *
 * `kSteady` marks the fleet's steady-state serve configuration
 * (enqueue-order round-robin, rate gates, fleet-style boundaries,
 * quantum 1, coalescing).  runUntil proves the configuration once per
 * call and dispatches here, so in this instantiation every flag test
 * below folds to a constant and the dead branches drop out of the
 * per-event code.  The non-steady instantiation reads cfg exactly as
 * before; both produce bit-identical serve decisions for any config.
 */
template <bool kSteady, class Client>
inline void
runUntilT(Client &c, Executor &ex, const Config &cfg, double t1)
{
    const double wall = cfg.wallLimitSec;
    // The five tenant-mode behaviours (see Mode), named at their use.
    const bool tenant = !kSteady && cfg.mode == Mode::kTenant;
    const bool wall_boundary = tenant;
    const bool idle_skips = tenant;
    const bool end_on_unfit = tenant;
    const bool strict_preempt = tenant;
    const bool rr_rotation =
        tenant && cfg.policy == SchedPolicy::kRoundRobin;
    const bool coalesce = kSteady || cfg.coalesce;
    const bool rate_gates = kSteady || cfg.rateGates;
    const std::uint64_t quantum = kSteady ? 1 : cfg.quantumIters;
    const double sw = c.switchSeconds(ex);

    // Both forms compare `now` against `bound - eps`; they are kept
    // bit-exact to the loops they replaced, not merely equivalent.
    auto atBoundary = [&]() {
        return wall_boundary ? (wall > 0.0 && wall - ex.nowSec <= kEps)
                             : (ex.nowSec + kEps >= t1);
    };
    auto idleEnds = [&](double ev) {
        return wall_boundary
                   ? (!std::isfinite(ev) ||
                      (wall > 0.0 && ev + kEps >= wall))
                   : !(ev < t1 - kEps);
    };

    // Cache of nextArrivalSec.  The next pending arrival's time can
    // only change when `promoteT` consumes it, and promote consumes
    // arrivals exactly when they are <= now + kEps -- the invalidation
    // test below.  Nothing else inside one runUntil call moves a task
    // into or out of kPending (placement runs between epochs), so a
    // cached value that survives the test is the value nextArrivalSec
    // would return.  Saves a tenant-table load per event on replays.
    double next_arr = 0.0;
    bool next_arr_known = false;
    auto nextArr = [&]() {
        if (!next_arr_known) {
            next_arr = nextArrivalSec(c, ex);
            next_arr_known = true;
        }
        return next_arr;
    };

    for (;;) {
        if (next_arr_known && next_arr <= ex.nowSec + kEps)
            next_arr_known = false; // promote is about to consume it
        promoteT<kSteady>(c, ex, cfg);
        if (atBoundary())
            break;

        std::size_t pick = kNoTask;
        if (ex.ready.empty()) {
            // Fast path for the open-loop steady state: one gated task
            // alone on the executor, its due time the next event, no
            // task change pending.  Replays the generic idle-jump ->
            // promote -> dispatch transition sequence (same counters,
            // same clock writes, same fit checks) without the
            // event-peek and ready-set machinery, which on a fleet
            // replay is the bulk of all serve-core events.
            bool fast = false;
            if (!idle_skips && ex.gated.size() == 1) {
                const GateEntry &top = ex.gated.top();
                if (c.owns(ex, top.idx) &&
                    top.gen == c.core(top.idx).gen &&
                    c.core(top.idx).state == TaskState::kGated &&
                    ex.last == std::size_t(top.idx) &&
                    !idleEnds(top.dueSec) &&
                    nextArr() > top.dueSec + kEps)
                    fast = true;
            }
            if (!fast) {
                const Event ev = peekNextEvent(c, ex, cfg);
                if (idleEnds(ev.atSec))
                    break; // kRunEnd / kControlEpoch
                if (ev.atSec > ex.nowSec)
                    ex.nowSec = ev.atSec;
                ++ex.counters.idleJumps;
                continue;
            }
            const std::uint32_t fidx = ex.gated.top().idx;
            ex.nowSec = ex.gated.top().dueSec;
            ++ex.counters.idleJumps;
            ex.gated.pop();
            ++ex.counters.promotions;
            // The scan's fit checks, for the lone candidate (lead is
            // zero: the task is already resident).
            const double fstep = c.stepSeconds(ex, fidx);
            const double fdep = c.departSec(fidx);
            if (fdep > 0.0 && ex.nowSec + fstep > fdep + kEps) {
                retire(c, ex, fidx);
                continue;
            }
            if (wall > 0.0 && ex.nowSec + fstep > wall + kEps) {
                if (end_on_unfit) {
                    // The generic path leaves an unfit survivor in the
                    // ready set and ends the run; keep that state.
                    enqueueReadyT<kSteady>(c, ex, cfg, fidx);
                    break;
                }
                retire(c, ex, fidx);
                continue;
            }
            if (rr_rotation)
                ex.rrNext = fidx + 1;
            c.core(fidx).state = TaskState::kReady;
            pick = fidx;
        }

        // Pick the first ready task (in policy order) that can still
        // run a step.  Tasks that can never run again -- their next
        // step would end past their departure, or past the wall --
        // retire on the spot; in tenant mode wall-unfit
        // tasks are only skipped, and if nothing fits the run ends.
        bool saw_unfit = false;
        auto scan = [&](ReadySet::iterator it) {
            while (it != ex.ready.end()) {
                const std::uint32_t idx = it->idx;
                const double step_sec = c.stepSeconds(ex, idx);
                const double lead =
                    (ex.last != kNoTask && ex.last != std::size_t(idx))
                        ? sw
                        : 0.0;
                const double dep = c.departSec(idx);
                if (dep > 0.0 &&
                    ex.nowSec + lead + step_sec > dep + kEps) {
                    it = ex.ready.erase(it);
                    retire(c, ex, idx);
                    continue;
                }
                if (wall > 0.0 &&
                    ex.nowSec + lead + step_sec > wall + kEps) {
                    if (end_on_unfit) {
                        saw_unfit = true;
                        ++it;
                        continue;
                    }
                    it = ex.ready.erase(it);
                    retire(c, ex, idx);
                    continue;
                }
                pick = idx;
                ex.ready.erase(it);
                return;
            }
        };
        if (pick == kNoTask) {
            if (rr_rotation) {
                // Rotate: first ready index at or after the cursor,
                // else wrap to the smallest (the historical
                // scheduler's pick).
                ReadyKey from;
                from.idx = ex.rrNext;
                scan(ex.ready.lower_bound(from));
                if (pick == kNoTask)
                    scan(ex.ready.begin());
                if (pick != kNoTask)
                    ex.rrNext = std::uint32_t(pick) + 1;
            } else {
                scan(ex.ready.begin());
            }
            if (pick == kNoTask) {
                if (saw_unfit)
                    break; // nothing fits the wall: the run is over
                continue;  // everything retired; re-check events
            }
        }

        ++ex.counters.dispatches;
        double switch_lead = 0.0;
        if (ex.last != kNoTask && pick != ex.last) {
            // Bill the task change: the engine stalls while the
            // outgoing working set flushes and the incoming one loads.
            ++ex.counters.switches;
            ex.nowSec += sw;
            c.onSwitch(ex, std::uint32_t(pick));
            switch_lead = sw;
        }
        ex.last = pick;

        const std::uint32_t pidx = std::uint32_t(pick);
        TaskCore &tc = c.core(pidx);
        const double step_sec = c.stepSeconds(ex, pidx);
        const double arrival = c.arrivalSec(pidx);
        const double dep = c.departSec(pidx);
        const double rate = c.rateSps(pidx);
        const bool rate_gated = rate_gates && rate > 0.0;
        const std::uint64_t limit = c.stepLimit(pidx);
        // Strict-preempt scan pointer: consumed monotonically as the
        // iteration start advances, never past unconsumed arrivals.
        std::size_t peek = ex.arrCursor;
        // `arrival + done/rate` changes only when `done` does; caching
        // the latest value saves the deadline check, the coalesce
        // check and the end-of-dispatch transition their own FP
        // divisions.  Reuse of the identical expression cannot change
        // a byte.
        double due_cache = 0.0;
        bool due_cached = false;

        // Whether the quantum-expiry re-pick is a guaranteed no-op:
        // no other ready task, no promotable event, boundary not hit.
        // Then re-enqueue + promote + pick hands the engine straight
        // back to this task and the round trip can be skipped.
        auto canCoalesce = [&]() {
            if (!coalesce)
                return false;
            if (!ex.ready.empty())
                return false;
            if (atBoundary())
                return false;
            // The runner must be able to step again; otherwise the
            // dispatch-end transition (retire / gate / re-enqueue)
            // must run.
            if (limit > 0 && tc.done >= limit)
                return false;
            if (wall > 0.0 && ex.nowSec + step_sec > wall + kEps)
                return false;
            if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps)
                return false;
            if (rate_gated &&
                (due_cached ? due_cache
                            : arrival + double(tc.done) / rate) >
                    ex.nowSec + kEps)
                return false;
            if (nextArr() <= ex.nowSec + kEps)
                return false;
            if (nextGateDueSec(c, ex) <= ex.nowSec + kEps)
                return false;
            return true;
        };

        // Run quanta, ending early on completion, on the epoch/wall
        // boundary, on departure, on the open-loop gate, or when a
        // new arrival makes a fresh scheduling decision due.
        bool dispatching = true;
        while (dispatching) {
            std::uint64_t q = 0;
            for (; q < quantum; ++q) {
                if (limit > 0 && tc.done >= limit) {
                    dispatching = false;
                    break;
                }
                if (wall > 0.0 &&
                    ex.nowSec + step_sec > wall + kEps) {
                    dispatching = false;
                    break;
                }
                if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps) {
                    dispatching = false;
                    break;
                }
                double due = 0.0;
                if (rate_gated) {
                    due = due_cached
                              ? due_cache
                              : arrival + double(tc.done) / rate;
                    if (due > ex.nowSec + kEps) {
                        dispatching = false;
                        break; // next step not issued yet
                    }
                }
                // Latency reference: the open-loop due time, or
                // (closed loop) the moment the step became eligible --
                // arrival for the first step, the previous completion
                // after that.
                const double eligible =
                    rate_gated
                        ? due
                        : std::max(arrival,
                                   tc.done > 0 ? tc.lastCompletionSec
                                               : arrival);
                const double step_start = ex.nowSec;
                ex.nowSec += step_sec;
                ++tc.done;
                ++ex.counters.steps;
                c.onStep(ex, pidx, step_start, ex.nowSec - eligible,
                         eligible, switch_lead);
                switch_lead = 0.0; // only the dispatch's first step
                tc.lastCompletionSec = ex.nowSec;
                double deadline;
                if (rate > 0.0) {
                    // stepDeadlineSec's rate branch, computed here so
                    // the due cache picks up the new `done`'s value.
                    deadline = arrival + double(tc.done) / rate;
                    due_cache = deadline;
                    due_cached = true;
                } else {
                    deadline = stepDeadlineSec(c, pidx, tc.done);
                }
                if (ex.nowSec <= deadline + kEps)
                    ++tc.metDeadlines;
                if (limit > 0 && tc.done >= limit) {
                    tc.completed = true;
                    tc.completionSec = ex.nowSec;
                    dispatching = false;
                    break;
                }
                if (!wall_boundary && ex.nowSec + kEps >= t1) {
                    dispatching = false;
                    break;
                }
                // Preemption point: a new arrival is waiting.
                if (strict_preempt) {
                    while (peek < ex.arrivals.size() &&
                           c.arrivalSec(ex.arrivals[peek]) <=
                               step_start + kEps)
                        ++peek;
                    if (peek < ex.arrivals.size() &&
                        c.arrivalSec(ex.arrivals[peek]) <=
                            ex.nowSec + kEps) {
                        dispatching = false;
                        break;
                    }
                } else if (ex.arrCursor < ex.arrivals.size() &&
                           c.arrivalSec(ex.arrivals[ex.arrCursor]) <=
                               ex.nowSec + kEps) {
                    dispatching = false;
                    break;
                }
            }
            if (!dispatching)
                break;
            if (!canCoalesce())
                break;
            ++ex.counters.coalescedQuanta;
        }

        if (tc.completed) {
            retire(c, ex, pidx);
        } else if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps) {
            retire(c, ex, pidx);
        } else if (rate_gated) {
            const double due =
                due_cached ? due_cache
                           : arrival + double(tc.done) / rate;
            if (due > ex.nowSec + kEps)
                gate(c, ex, pidx, due);
            else
                enqueueReadyT<kSteady>(c, ex, cfg, pidx);
        } else {
            enqueueReadyT<kSteady>(c, ex, cfg, pidx);
        }
    }
}

template <class Client>
inline void
runUntil(Client &c, Executor &ex, const Config &cfg, double t1)
{
    if (cfg.policy == SchedPolicy::kRoundRobin &&
        cfg.mode == Mode::kFleet && cfg.rateGates && cfg.coalesce &&
        cfg.quantumIters == 1)
        runUntilT<true>(c, ex, cfg, t1);
    else
        runUntilT<false>(c, ex, cfg, t1);
}

} // namespace serve_core
} // namespace diva
