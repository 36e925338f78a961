/**
 * @file
 * The discrete-event simulation core.
 *
 * Every component in the SDF reproduction — flash planes, channel buses,
 * host links, LSM compaction, client actors — advances by scheduling
 * callbacks on a single Simulator. Simulated time is in nanoseconds and
 * totally ordered: events with equal timestamps fire in scheduling order,
 * which makes every run deterministic.
 *
 * Two interchangeable engines implement the queue (same dispatch order,
 * byte-identical runs — see DESIGN.md §14):
 *
 *  - kCalendar (default): a bucketed calendar queue. Near-future events
 *    land in fixed-width time buckets (O(1) insert), the bucket being
 *    drained is kept in a small binary heap, and far-future events wait
 *    in an overflow heap until the window rotates over them. Event state
 *    lives in a pooled slot array; EventIds carry a generation stamp so
 *    Cancel() and PendingEvents() are O(1) with no hash table.
 *  - kHeap: the seed engine kept as a reference implementation — a binary
 *    heap ordered by (time, sequence) plus a live-id set. Slower, but
 *    structurally simple; `--engine=heap` selects it for A/B debugging.
 *
 * Both engines share the completion ring (Post()): a FIFO of callbacks
 * due at the current timestamp, drained in sequence order interleaved
 * with the timed queue. A completion that needs no further delay rides
 * the ring instead of paying for a queue slot — the PureFlash-style
 * polling seam the device, network and client layers batch through.
 *
 * Work that occupies simulated time but runs no code (a FifoResource
 * busy with a null completion: a plane sensing before its bus transfer,
 * a NIC serializing a request, a stalled channel) never enters either
 * queue. It only raises the *horizon* (ExtendHorizon()), a single max
 * the run loops advance the clock to once the queues drain, and which
 * counts as pending work while it lies ahead of the clock.
 */
#ifndef SDF_SIM_SIMULATOR_H
#define SDF_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/callback.h"
#include "util/units.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::sim {

using util::TimeNs;

/** Opaque handle for cancelling a scheduled event. */
using EventId = uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kInvalidEvent = 0;

/** Which event-queue implementation a Simulator runs on. */
enum class EngineKind : uint8_t
{
    kHeap = 0,      ///< Reference binary heap + live-id set (seed engine).
    kCalendar = 1,  ///< Bucketed calendar queue with pooled slots (fast).
};

/** "heap" / "calendar". */
const char *EngineName(EngineKind kind);

/** Parse an --engine= value; @return false on an unknown name. */
bool ParseEngineName(const char *name, EngineKind *out);

/**
 * Engine used by default-constructed Simulators. Defaults to kCalendar;
 * the shared CLI's --engine flag overrides it process-wide so every
 * binary can A/B the engines without threading a parameter through each
 * construction site.
 */
EngineKind DefaultEngine();
void SetDefaultEngine(EngineKind kind);

/**
 * Single-threaded discrete-event simulator.
 *
 * Callbacks may schedule further events (including at the current time);
 * they must not block. Exceptions escaping a callback propagate out of
 * Run()/RunUntil().
 */
class Simulator
{
  public:
    /** Calendar-queue geometry (ignored by the heap engine). */
    struct CalendarConfig
    {
        /** log2 of the bucket width in ns (13 -> 8.192 us buckets). */
        uint32_t bucket_width_log2 = 13;
        /** Bucket count; power of two. Window = width * count (~67 ms at
         *  the defaults) — delays beyond it take the overflow heap. The
         *  window is sized to swallow RPC-timeout-scale delays (50 ms):
         *  they are the dominant far-future events, and keeping them in
         *  the wheel makes rotations (and the overflow round trips of
         *  events scheduled near the window's end) rare. */
        uint32_t bucket_count = 8192;
    };

    explicit Simulator(EngineKind engine = DefaultEngine());
    Simulator(EngineKind engine, const CalendarConfig &calendar);
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    TimeNs Now() const { return now_; }

    /** Engine this instance runs on. */
    EngineKind engine() const { return engine_; }

    /** Schedule @p cb to run @p delay ns from now (delay >= 0). */
    EventId Schedule(TimeNs delay, Callback cb);

    /** Schedule @p cb at absolute time @p when (when >= Now()). */
    EventId ScheduleAt(TimeNs when, Callback cb);

    /**
     * Completion ring: run @p cb at the current timestamp, after every
     * event already scheduled for this timestamp, in post order —
     * exactly the dispatch order of `Schedule(0, cb)`, without a queue
     * slot, a handle, or cancellation support. The batched-completion
     * seam: device completions, RPC settles and client sheds that need
     * no further simulated delay ride the ring and are drained once per
     * dispatch step.
     */
    void Post(Callback cb);

    /**
     * Declare that simulated activity runs until @p when without any
     * callback at its end. Costs one max: no queue slot, no dispatch.
     * The clock still reaches @p when — Run() and a drained
     * RunWhileNot() advance Now() to the horizon — and until then it
     * counts in PendingEvents() and in RunUntil()'s result, exactly like
     * an empty event scheduled at @p when would (but it is not counted
     * by events_processed()).
     */
    void
    ExtendHorizon(TimeNs when)
    {
        if (when > horizon_) horizon_ = when;
    }

    /** Cancel a pending event; no-op if already fired or invalid. */
    void Cancel(EventId id);

    /**
     * Run until the event queue is empty, then advance the clock to the
     * horizon if it lies beyond the last event.
     */
    void Run();

    /**
     * Run all events with timestamp <= @p deadline, then advance the clock
     * to @p deadline.
     * @return true if events remain pending after the deadline (a horizon
     *     beyond the deadline counts as pending).
     */
    bool RunUntil(TimeNs deadline);

    /**
     * Fire events one at a time until @p predicate() returns true or the
     * queue drains; a drained queue leaves the clock at the horizon.
     * @return true if the predicate was satisfied.
     */
    bool RunWhileNot(const std::function<bool()> &predicate);

    /** Callbacks dispatched (for stats and microbenchmarks). */
    uint64_t events_processed() const { return events_processed_; }

    /**
     * Number of pending (uncancelled) events, including posted ones, plus
     * one while the horizon lies ahead of the clock.
     */
    size_t
    PendingEvents() const
    {
        return live_count_ + (ring_.size() - ring_head_) +
               (horizon_ > now_ ? 1 : 0);
    }

    /**
     * Observability hub for this run, or null (the default). Components
     * hold a `Simulator &` already, so the hub rides on it: install it
     * *before* constructing the stack and every layer self-registers its
     * metrics. The simulator never reads the hub itself.
     */
    obs::Hub *hub() const { return hub_; }
    void set_hub(obs::Hub *hub) { hub_ = hub; }

  private:
    static constexpr uint32_t kNil = 0xFFFFFFFFu;

    /** Pooled event state; index + generation form the EventId. */
    struct Slot
    {
        TimeNs when = 0;
        uint64_t seq = 0;    ///< Global insertion order (FIFO tiebreak).
        uint32_t gen = 1;    ///< Bumped on free; stale ids never match.
        uint32_t next = kNil;  ///< Intrusive bucket-list link.
        bool armed = false;  ///< False once fired or cancelled.
        Callback cb;
    };

    /** Heap item for the near / overflow heaps (min by when, then seq). */
    struct HeapRef
    {
        TimeNs when;
        uint64_t seq;
        uint32_t slot;
    };
    struct RefLater
    {
        bool
        operator()(const HeapRef &a, const HeapRef &b) const
        {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Bucket
    {
        uint32_t head = kNil;
        uint32_t tail = kNil;
    };

    /** Completion-ring entry: due at its post-time (== now forever). */
    struct RingItem
    {
        uint64_t seq;
        Callback cb;
    };

    // ---- shared plumbing ----
    uint32_t AcquireSlot();
    void FreeSlot(uint32_t idx);
    EventId IdOf(uint32_t idx) const;
    /** Fire the next due item (ring or queue). @return false when empty. */
    bool PopNext();
    /** Earliest (when, seq) in the timed queue; false when empty. */
    bool PeekTimed(TimeNs *when, uint64_t *seq);
    /** Pop the timed-queue head (must exist) and fire it. */
    void FireTimedHead();
    void FireRingHead();
    /** Drained queue: the clock catches up with the horizon. */
    void
    AdvanceToHorizon()
    {
        if (horizon_ > now_) now_ = horizon_;
    }

    // ---- calendar engine ----
    void CalendarInsert(uint32_t slot_idx);
    /** Refill near_ so its top is the queue minimum; false when empty. */
    bool CalendarSettle();
    void RotateWindow();

    // ---- heap engine ----
    void HeapDropCancelledHead();

    EngineKind engine_;
    TimeNs now_ = 0;
    /** Latest end of callback-free activity (see ExtendHorizon()). */
    TimeNs horizon_ = 0;
    uint64_t next_seq_ = 1;
    uint64_t events_processed_ = 0;
    size_t live_count_ = 0;
    obs::Hub *hub_ = nullptr;

    /** Calendar engine's slot pool. */
    std::vector<Slot> slots_;
    std::vector<uint32_t> free_slots_;

    /** Completion ring: FIFO, drained by seq against the timed queue. */
    std::vector<RingItem> ring_;
    size_t ring_head_ = 0;

    // Calendar engine state.
    uint32_t width_log2_;
    uint32_t bucket_count_;     ///< Power of two.
    TimeNs window_start_ = 0;   ///< Aligned to the bucket width.
    uint32_t cur_bucket_ = 0;
    uint64_t wheel_count_ = 0;  ///< Events in bucket lists (not near_).
    std::vector<Bucket> buckets_;
    std::vector<uint64_t> occupied_;   ///< One bit per bucket.
    std::vector<HeapRef> near_;        ///< Heap: current bucket's events.
    std::vector<HeapRef> overflow_;    ///< Heap: events past the window.

    /**
     * Heap reference engine state, structurally the seed design: whole
     * entries (callback included) sift through one binary heap, and a
     * hash set of live ids backs Cancel()/PendingEvents(). Kept as the
     * baseline the calendar engine is measured against; the one seed bug
     * fixed here is the forced callback copy on dispatch — the owned
     * vector heap lets Step() move the entry out instead.
     */
    struct HeapEntry
    {
        TimeNs when;
        uint64_t seq;  ///< Doubles as the EventId in this engine.
        Callback cb;
    };
    struct EntryLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::vector<HeapEntry> heap_;
    std::unordered_set<uint64_t> heap_live_;
};

}  // namespace sdf::sim

#endif  // SDF_SIM_SIMULATOR_H
