/**
 * @file
 * Engine-equivalence and fast-path tests for the event core.
 *
 * The calendar engine must be indistinguishable from the reference heap
 * engine in dispatch order — the repo's byte-identical-exports guarantee
 * rests on it (DESIGN.md §14). These tests drive both engines through
 * identical randomized schedules and through the calendar queue's edge
 * geometry (bucket boundaries, window rotation, cancel storms), plus the
 * move-only Callback and BlockPool primitives the fast path rides on, and
 * the horizon contract for resource occupancy that runs no callback.
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "nand/channel.h"
#include "nand/error_model.h"
#include "nand/geometry.h"
#include "nand/timing.h"
#include "sim/callback.h"
#include "sim/fifo_resource.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sdf::sim {
namespace {

/** One engine's observable dispatch history. */
struct Fired
{
    std::vector<int> order;
    std::vector<TimeNs> times;
};

TEST(EngineCross, RandomizedScheduleMatchesReferenceHeap)
{
    // 10k mixed schedules — immediate, near (within one bucket), mid
    // (across buckets), far (overflow heap) — driven identically into
    // both engines; the pop order must match event for event.
    std::mt19937_64 rng(0xC0FFEEu);
    struct Op
    {
        TimeNs delay;
        int tag;
    };
    std::vector<Op> ops;
    ops.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        const int kind = static_cast<int>(rng() % 4);
        TimeNs d = 0;
        if (kind == 1) d = static_cast<TimeNs>(rng() % 8000);        // bucket
        if (kind == 2) d = static_cast<TimeNs>(rng() % 2000000);     // wheel
        if (kind == 3) d = static_cast<TimeNs>(rng() % 400000000);   // far
        ops.push_back(Op{d, i});
    }

    auto run = [&ops](EngineKind kind) {
        Simulator sim(kind);
        Fired fired;
        // Feed in waves from inside the run so the clock moves between
        // insertions (exercises rotation with a non-zero now).
        const size_t wave = 500;
        for (size_t base = 0; base < ops.size(); base += wave) {
            sim.Schedule(static_cast<TimeNs>(base) * 1000,
                         [&sim, &ops, &fired, base, wave]() {
                             const size_t end =
                                 std::min(base + wave, ops.size());
                             for (size_t i = base; i < end; ++i) {
                                 sim.Schedule(ops[i].delay,
                                              [&fired, &sim, tag = ops[i].tag]() {
                                                  fired.order.push_back(tag);
                                                  fired.times.push_back(
                                                      sim.Now());
                                              });
                             }
                         });
        }
        sim.Run();
        return fired;
    };

    const Fired heap = run(EngineKind::kHeap);
    const Fired cal = run(EngineKind::kCalendar);
    ASSERT_EQ(heap.order.size(), cal.order.size());
    EXPECT_EQ(heap.order, cal.order);
    EXPECT_EQ(heap.times, cal.times);
}

TEST(EngineCross, CancelStormMatchesReferenceHeap)
{
    // Schedule/cancel churn: every third event is cancelled, some twice,
    // some after adjacent events already fired. Both engines must agree
    // on the survivors and their order.
    auto run = [](EngineKind kind) {
        Simulator sim(kind);
        Fired fired;
        std::vector<EventId> ids;
        std::mt19937_64 rng(7);
        for (int i = 0; i < 3000; ++i) {
            const TimeNs d = static_cast<TimeNs>(rng() % 500000);
            ids.push_back(sim.Schedule(d, [&fired, &sim, i]() {
                fired.order.push_back(i);
                fired.times.push_back(sim.Now());
            }));
        }
        for (size_t i = 0; i < ids.size(); i += 3) sim.Cancel(ids[i]);
        for (size_t i = 0; i < ids.size(); i += 7) sim.Cancel(ids[i]);
        sim.Run();
        // Cancelling after the queue drained must be a harmless no-op.
        for (EventId id : ids) sim.Cancel(id);
        return fired;
    };
    const Fired heap = run(EngineKind::kHeap);
    const Fired cal = run(EngineKind::kCalendar);
    EXPECT_EQ(heap.order, cal.order);
    EXPECT_EQ(heap.times, cal.times);
}

TEST(EngineCross, PostInterleavesExactlyLikeZeroDelaySchedule)
{
    // A Post() and a Schedule(0, ...) issued in some interleaving must
    // dispatch in issue order on both engines.
    auto run = [](EngineKind kind) {
        Simulator sim(kind);
        std::vector<int> order;
        sim.Schedule(10, [&]() {
            sim.Post([&]() { order.push_back(0); });
            sim.Schedule(0, [&]() { order.push_back(1); });
            sim.Post([&]() { order.push_back(2); });
            sim.Schedule(0, [&]() { order.push_back(3); });
        });
        sim.Run();
        return order;
    };
    const std::vector<int> want = {0, 1, 2, 3};
    EXPECT_EQ(run(EngineKind::kHeap), want);
    EXPECT_EQ(run(EngineKind::kCalendar), want);
}

TEST(CalendarQueue, EqualTimestampFifoAcrossBucketBoundaries)
{
    // Events scheduled for the same instant from different "homes" —
    // current bucket, a future bucket, the overflow heap (via window
    // rotation) — still fire in scheduling order.
    Simulator::CalendarConfig cfg;
    cfg.bucket_width_log2 = 4;  // 16 ns buckets...
    cfg.bucket_count = 8;       // ...128 ns window: rotation is cheap to hit.
    Simulator sim(EngineKind::kCalendar, cfg);
    std::vector<int> order;
    const TimeNs t = 1000;  // Far outside the initial window.
    for (int i = 0; i < 64; ++i) {
        sim.ScheduleAt(t, [&order, i]() { order.push_back(i); });
    }
    // Same timestamp, scheduled later, after the clock has moved: still
    // fires after the first 64.
    sim.Schedule(1, [&sim, &order, t]() {
        sim.ScheduleAt(t, [&order]() { order.push_back(64); });
    });
    sim.Run();
    ASSERT_EQ(order.size(), 65u);
    for (int i = 0; i < 65; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarQueue, FarFutureOverflowMigration)
{
    // Far-future events park in the overflow heap, then migrate into the
    // wheel when the window rotates; ordering and timestamps must hold
    // across several rotations.
    Simulator::CalendarConfig cfg;
    cfg.bucket_width_log2 = 6;  // 64 ns buckets.
    cfg.bucket_count = 16;      // 1 KiB-ns window.
    Simulator sim(EngineKind::kCalendar, cfg);
    std::vector<TimeNs> fire_times;
    // Spread over ~100 windows, inserted in a scrambled order.
    std::vector<TimeNs> whens;
    for (int i = 0; i < 200; ++i)
        whens.push_back(static_cast<TimeNs>((i * 7919) % 100000));
    for (TimeNs w : whens) {
        sim.ScheduleAt(w, [&fire_times, &sim]() {
            fire_times.push_back(sim.Now());
        });
    }
    sim.Run();
    ASSERT_EQ(fire_times.size(), whens.size());
    std::vector<TimeNs> sorted = whens;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fire_times, sorted);
}

TEST(CalendarQueue, PendingEventsTracksCancellation)
{
    Simulator sim(EngineKind::kCalendar);
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(sim.Schedule(1000 + i, []() {}));
    }
    EXPECT_EQ(sim.PendingEvents(), 100u);
    for (int i = 0; i < 50; ++i) sim.Cancel(ids[i]);
    EXPECT_EQ(sim.PendingEvents(), 50u);
    // Double-cancel and stale ids change nothing.
    for (int i = 0; i < 50; ++i) sim.Cancel(ids[i]);
    sim.Cancel(ids[60] + 1);  // Wrong generation.
    EXPECT_EQ(sim.PendingEvents(), 50u);
    sim.Post([]() {});
    EXPECT_EQ(sim.PendingEvents(), 51u);  // Posted work counts as pending.
    sim.Run();
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_EQ(sim.events_processed(), 51u);
}

TEST(CalendarQueue, RescheduleStormRecyclesSlots)
{
    // Cancel-and-reschedule loops (the hedge-timer pattern) must not grow
    // state: the slot pool recycles, tombstones drain, and the final
    // timer fires exactly once.
    Simulator sim(EngineKind::kCalendar);
    int fired = 0;
    EventId timer = kInvalidEvent;
    for (int i = 0; i < 10000; ++i) {
        if (timer != kInvalidEvent) sim.Cancel(timer);
        timer = sim.Schedule(5000 + i, [&fired]() { ++fired; });
    }
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Horizon: callback-free resource occupancy (FifoResource null completions)
// ---------------------------------------------------------------------------

constexpr EngineKind kBothEngines[] = {EngineKind::kHeap,
                                       EngineKind::kCalendar};

/** One real event at t=100 and a null completion busy until t=10000. */
void
ScheduleHorizonPastLastEvent(Simulator &sim, FifoResource &res, int *fired)
{
    sim.Schedule(100, [fired]() { ++*fired; });
    EXPECT_EQ(res.Submit(10000, nullptr), 10000);
}

TEST(Horizon, RunEndsAtHorizon)
{
    for (const EngineKind kind : kBothEngines) {
        SCOPED_TRACE(EngineName(kind));
        Simulator sim(kind);
        FifoResource res(sim);
        int fired = 0;
        ScheduleHorizonPastLastEvent(sim, res, &fired);
        EXPECT_EQ(sim.PendingEvents(), 2u);  // The event and the horizon.
        sim.Run();
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(sim.Now(), 10000);
        EXPECT_EQ(sim.PendingEvents(), 0u);
        EXPECT_FALSE(res.Busy());
        // Only the callback counts as a processed event.
        EXPECT_EQ(sim.events_processed(), 1u);
    }
}

TEST(Horizon, RunUntilBeforeHorizonReportsPending)
{
    for (const EngineKind kind : kBothEngines) {
        SCOPED_TRACE(EngineName(kind));
        Simulator sim(kind);
        FifoResource res(sim);
        int fired = 0;
        ScheduleHorizonPastLastEvent(sim, res, &fired);
        EXPECT_TRUE(sim.RunUntil(5000));
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(sim.Now(), 5000);
        EXPECT_GT(sim.PendingEvents(), 0u);
        EXPECT_TRUE(res.Busy());
        EXPECT_FALSE(sim.RunUntil(10000));
        EXPECT_EQ(sim.Now(), 10000);
        EXPECT_EQ(sim.PendingEvents(), 0u);
        EXPECT_EQ(sim.events_processed(), 1u);
    }
}

TEST(Horizon, DrainedRunWhileNotEndsAtHorizon)
{
    for (const EngineKind kind : kBothEngines) {
        SCOPED_TRACE(EngineName(kind));
        Simulator sim(kind);
        FifoResource res(sim);
        int fired = 0;
        ScheduleHorizonPastLastEvent(sim, res, &fired);
        EXPECT_FALSE(sim.RunWhileNot([]() { return false; }));
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(sim.Now(), 10000);
        EXPECT_EQ(sim.PendingEvents(), 0u);
        EXPECT_EQ(sim.events_processed(), 1u);
    }
}

TEST(Horizon, SlicedDrainStopsWhereAMarkerEventWould)
{
    // The sliced driver loops RunUntil(next slice) while PendingEvents() >
    // 0; a horizon must end that loop on the same slice (and at the same
    // clock) as an explicit empty event at the same time.
    auto drain = [](Simulator &sim) {
        int slices = 0;
        while (sim.PendingEvents() > 0) {
            sim.RunUntil((sim.Now() / 1000 + 1) * 1000);
            ++slices;
        }
        return slices;
    };
    for (const EngineKind kind : kBothEngines) {
        SCOPED_TRACE(EngineName(kind));
        Simulator marker(kind);
        marker.Schedule(100, []() {});
        marker.ScheduleAt(7500, nullptr);
        Simulator horizon(kind);
        horizon.Schedule(100, []() {});
        horizon.ExtendHorizon(7500);
        EXPECT_EQ(drain(horizon), drain(marker));
        EXPECT_EQ(horizon.Now(), marker.Now());
        EXPECT_EQ(horizon.Now(), 8000);
    }
}

TEST(Horizon, StallOnIdleChannelAdvancesClockToItsEnd)
{
    // A stall occupies the bus and every plane with no callback at all:
    // the one path where the horizon outlasts every real event.
    for (const EngineKind kind : kBothEngines) {
        SCOPED_TRACE(EngineName(kind));
        Simulator sim(kind);
        nand::Channel ch(sim, nand::TinyTestGeometry(),
                         nand::FastTestTiming(), nand::ErrorModel{},
                         util::Rng(1), false, 40);
        ch.InjectStall(util::UsToNs(250));
        EXPECT_TRUE(ch.Busy());
        EXPECT_GT(sim.PendingEvents(), 0u);
        sim.Run();
        EXPECT_EQ(sim.Now(), util::UsToNs(250));
        EXPECT_FALSE(ch.Busy());
        EXPECT_EQ(sim.events_processed(), 0u);
    }
}

TEST(Callback, MoveOnlyCapturesWork)
{
    // The whole point of the SBO callback: move-only state rides in the
    // closure with no shared_ptr detour.
    Simulator sim(EngineKind::kCalendar);
    auto payload = std::make_unique<int>(41);
    int got = 0;
    sim.Schedule(10, [p = std::move(payload), &got]() { got += *p + 1; });
    auto posted = std::make_unique<int>(7);
    sim.Post([p = std::move(posted), &got]() { got += *p; });
    sim.Run();
    EXPECT_EQ(got, 49);
}

TEST(Callback, LargeClosureFallsBackToHeap)
{
    // Closures past the inline budget still work (one heap allocation).
    struct Big
    {
        unsigned char blob[200];
    };
    Big big{};
    big.blob[0] = 3;
    int got = 0;
    Callback cb = [big, &got]() { got = big.blob[0]; };
    Callback moved = std::move(cb);
    moved();
    EXPECT_EQ(got, 3);
    EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
}

TEST(Callback, CancelDestroysCaptureImmediately)
{
    // Cancelling an event releases the closure's resources right away,
    // not when the tombstone pops: the shared_ptr count proves it.
    Simulator sim(EngineKind::kCalendar);
    auto tracker = std::make_shared<int>(1);
    const EventId id =
        sim.Schedule(1000, [keep = tracker]() { (void)*keep; });
    EXPECT_EQ(tracker.use_count(), 2);
    sim.Cancel(id);
    EXPECT_EQ(tracker.use_count(), 1);
    sim.Run();
}

TEST(BlockPool, RecyclesBlocksThroughFreeList)
{
    BlockPool pool;
    void *a = pool.Alloc(24);
    void *b = pool.Alloc(24);
    EXPECT_NE(a, b);
    pool.Free(a);
    void *c = pool.Alloc(24);
    EXPECT_EQ(c, a);  // LIFO recycling.
    pool.Free(b);
    pool.Free(c);
    EXPECT_EQ(pool.capacity(), BlockPool::kSlabBlocks);
}

TEST(BlockPool, PooledSharedKeepsValueSemantics)
{
    BlockPool pool;
    std::weak_ptr<int> observer;
    {
        auto p = MakePooledShared<int>(pool, 42);
        EXPECT_EQ(*p, 42);
        observer = p;
        auto q = p;
        EXPECT_EQ(observer.use_count(), 2);
    }
    EXPECT_TRUE(observer.expired());
    // The node is back on the free list: the next allocation reuses it.
    auto r = MakePooledShared<int>(pool, 7);
    EXPECT_EQ(*r, 7);
    EXPECT_EQ(pool.capacity(), BlockPool::kSlabBlocks);
}

}  // namespace
}  // namespace sdf::sim
