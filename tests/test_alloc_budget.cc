/**
 * @file
 * Heap-allocation budgets of the hot request paths.
 *
 * A full-unit read or in-storage scan touches every page of the unit, and
 * each page's continuation runs through the channel and the event engine.
 * Those continuations must fit their callables' inline buffers, so a
 * request costs a fixed number of allocations however many pages it
 * spans. The cluster op path (router fan-out and walk, node RPC stubs,
 * transport, slice, I/O stack) runs on pooled per-op records, so a routed
 * get or put costs a small fixed number of allocations once the pools are
 * warm. This binary replaces the global operator new with a counting one
 * (which is why it is its own test executable) and checks those counts in
 * timing-only mode on the default calendar engine.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cluster/cluster.h"
#include "nand/timing.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sdf::core {
namespace {

/** Allocations a request may make regardless of its page count. */
constexpr uint64_t kPerRequestBudget = 4;

struct Rig
{
    sim::Simulator sim{sim::EngineKind::kCalendar};
    SdfDevice device{sim, MakeConfig()};

    Rig()
    {
        // A written unit, so every page goes through the flash (and the
        // read-retry ladder's continuation), not the unmapped shortcut.
        device.DebugForceWritten(0, 0);
    }

    static SdfConfig
    MakeConfig()
    {
        SdfConfig c = BaiduSdfConfig(0.02);
        c.flash.timing = nand::FastTestTiming();
        c.flash.store_payloads = false;
        return c;
    }

    uint32_t
    pages_per_unit() const
    {
        return static_cast<uint32_t>(device.unit_bytes() /
                                     device.read_unit_bytes());
    }

    /** Allocations made by one Read() of @p pages pages, run to the end. */
    uint64_t
    ReadAllocs(uint32_t pages)
    {
        bool ok = false;
        const uint64_t before = g_allocs;
        device.Read(0, 0, 0, uint64_t{pages} * device.read_unit_bytes(),
                    [&ok](IoStatus st) { ok = st.ok(); });
        sim.Run();
        const uint64_t allocs = g_allocs - before;
        EXPECT_TRUE(ok);
        return allocs;
    }

    /** Allocations made by one full-unit ScanUnit(), run to the end. */
    uint64_t
    ScanAllocs()
    {
        bool ok = false;
        const uint64_t before = g_allocs;
        device.ScanUnit(0, 0, 0.25,
                        [&ok](bool s, uint64_t) { ok = s; });
        sim.Run();
        const uint64_t allocs = g_allocs - before;
        EXPECT_TRUE(ok);
        return allocs;
    }
};

TEST(AllocBudget, FullUnitReadAllocatesLikeOnePage)
{
    Rig rig;
    const uint32_t pages = rig.pages_per_unit();
    ASSERT_GE(pages, 256u);
    // Warm-up: the engine's slot pool, heaps and the interrupt queue grow
    // to this workload's peak once; later requests reuse them.
    rig.ReadAllocs(pages);
    rig.ReadAllocs(1);

    const uint64_t one = rig.ReadAllocs(1);
    const uint64_t full = rig.ReadAllocs(pages);
    EXPECT_LE(one, kPerRequestBudget);
    EXPECT_LE(full, kPerRequestBudget);
    EXPECT_LE(full, one + 1) << pages << "-page read vs one page";
}

TEST(AllocBudget, FullUnitScanIsConstantPerRequest)
{
    Rig rig;
    rig.ScanAllocs();  // Warm-up, as above.
    const uint64_t scan = rig.ScanAllocs();
    EXPECT_LE(scan, kPerRequestBudget)
        << "scan of " << rig.pages_per_unit() << " pages";
}

}  // namespace
}  // namespace sdf::core

namespace sdf::cluster {
namespace {

/**
 * Allocations of one routed op on a warm 3-node, R=3 cluster, run to
 * completion. Before the pooled, closure-free RPC path these were 26 (a
 * flash-read Get) and 47 (a PutTyped to three replicas); now 4 and 3
 * (the test prints them), and the budgets leave a little headroom.
 */
constexpr uint64_t kClusterGetBudget = 6;
constexpr uint64_t kClusterPutBudget = 6;

struct ClusterRig
{
    sim::Simulator sim{sim::EngineKind::kCalendar};
    Cluster cl{sim, MakeConfig()};

    static ClusterConfig
    MakeConfig()
    {
        ClusterConfig cc;
        cc.nodes = 3;
        cc.replication = 3;
        cc.node.kv.stack.capacity_scale = 0.02;
        cc.node.kv.store.slice_count = 2;
        cc.node.kv.stack.tune_sdf = [](core::SdfConfig &dc) {
            dc.flash.timing = nand::FastTestTiming();
            dc.flash.store_payloads = false;
        };
        return cc;
    }

    uint64_t
    GetAllocs(uint64_t key)
    {
        bool found = false;
        const uint64_t before = g_allocs;
        cl.router().Get(key, [&found](const kv::GetResult &r) {
            found = r.ok && r.found;
        });
        sim.Run();
        const uint64_t allocs = g_allocs - before;
        EXPECT_TRUE(found) << "key " << key;
        return allocs;
    }

    uint64_t
    PutAllocs(uint64_t key)
    {
        kv::OpStatus status = kv::OpStatus::kError;
        const uint64_t before = g_allocs;
        cl.router().PutTyped(key, 4096, [&status](kv::OpStatus s) {
            status = s;
        });
        sim.Run();
        const uint64_t allocs = g_allocs - before;
        EXPECT_EQ(status, kv::OpStatus::kOk) << "key " << key;
        return allocs;
    }
};

TEST(AllocBudget, ClusterGetAndPutStayWithinBudget)
{
    ClusterRig rig;
    // Flushed keys, so every get below is a flash read.
    ASSERT_EQ(rig.cl.Preload(64, 4096).size(), 64u);
    // Warm-up: pools, engine slots and the stores' indexes reach their
    // steady-state size.
    for (uint64_t key = 1; key <= 16; ++key) {
        rig.GetAllocs(key);
        rig.PutAllocs(1000 + key);
    }
    const uint64_t get = rig.GetAllocs(40);
    const uint64_t put = rig.PutAllocs(2000);
    std::printf("routed get: %llu allocations, PutTyped: %llu\n",
                static_cast<unsigned long long>(get),
                static_cast<unsigned long long>(put));
    EXPECT_LE(get, kClusterGetBudget);
    EXPECT_LE(put, kClusterPutBudget);
}

}  // namespace
}  // namespace sdf::cluster
