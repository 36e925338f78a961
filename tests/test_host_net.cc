/**
 * @file
 * Unit tests for the host I/O stack model and the client/server network.
 */
#include <gtest/gtest.h>

#include "host/io_stack.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace sdf {
namespace {

TEST(IoStack, SpecsMatchPaperNumbers)
{
    const auto kernel = host::KernelIoStackSpec();
    // §4.3: ~12.9 us total on a 2.4 GHz server CPU.
    EXPECT_NEAR(util::NsToUs(kernel.issue_cost + kernel.completion_cost),
                12.9, 0.5);
    const auto user = host::SdfUserStackSpec();
    // §2.4: 2-4 us.
    const double total = util::NsToUs(user.issue_cost + user.completion_cost);
    EXPECT_GE(total, 2.0);
    EXPECT_LE(total, 4.0);
}

TEST(IoStack, AddsIssueAndCompletionLatency)
{
    sim::Simulator sim;
    host::IoStack stack(sim, host::KernelIoStackSpec(), 1);
    util::TimeNs done_at = 0;
    stack.Issue(
        [&sim](sim::Callback done) {
            sim.Schedule(util::UsToNs(100), std::move(done));
        },
        [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_EQ(done_at, util::UsToNs(100) + util::UsToNs(3.8) +
                           util::UsToNs(9.1));
    EXPECT_EQ(stack.requests(), 1u);
    EXPECT_EQ(stack.cpu_time(), util::UsToNs(12.9));
}

TEST(IoStack, NullStackIsFree)
{
    sim::Simulator sim;
    host::IoStack stack(sim, host::NullIoStackSpec(), 1);
    util::TimeNs done_at = 1;
    stack.Issue([](sim::Callback done) { done(); },
                [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_EQ(done_at, 0);
}

TEST(IoStack, SingleCpuSaturates)
{
    sim::Simulator sim;
    host::IoStackSpec spec{"test", util::UsToNs(10), 0};
    host::IoStack stack(sim, spec, 1);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        stack.Issue([](sim::Callback d) { d(); }, [&]() { ++done; });
    }
    sim.Run();
    EXPECT_EQ(done, 10);
    // Ten issues of 10 us on one CPU serialize to 100 us.
    EXPECT_EQ(sim.Now(), util::UsToNs(100));
}

TEST(IoStack, MultipleCpusParallelize)
{
    sim::Simulator sim;
    host::IoStackSpec spec{"test", util::UsToNs(10), 0};
    host::IoStack stack(sim, spec, 10);
    for (int i = 0; i < 10; ++i) {
        stack.Issue([](sim::Callback d) { d(); }, nullptr);
    }
    sim.Run();
    EXPECT_EQ(sim.Now(), util::UsToNs(10));
}

TEST(ClosedLoopActor, IteratesUntilStopped)
{
    sim::Simulator sim;
    host::ClosedLoopActor actor(sim, [&sim](sim::Callback done) {
        sim.Schedule(util::UsToNs(10), std::move(done));
    });
    actor.Start();
    sim.RunUntil(util::UsToNs(105));
    actor.Stop();
    sim.Run();
    // One iteration per 10 us.
    EXPECT_GE(actor.completed(), 10u);
    EXPECT_LE(actor.completed(), 11u);
}

TEST(ClosedLoopActor, StopPreventsFurtherIterations)
{
    sim::Simulator sim;
    int iterations = 0;
    host::ClosedLoopActor actor(sim, [&](sim::Callback done) {
        ++iterations;
        sim.Schedule(1, std::move(done));
    });
    actor.Start();
    sim.RunUntil(5);
    actor.Stop();
    sim.Run();
    const int at_stop = iterations;
    EXPECT_LE(iterations, at_stop);
}

TEST(Network, RpcRoundTripLatency)
{
    sim::Simulator sim;
    net::NetworkSpec spec;
    spec.one_way_delay = util::UsToNs(50);
    spec.server_per_message = util::UsToNs(10);
    spec.worker_per_byte_ns = 0;
    net::Network net(sim, spec, 1);

    util::TimeNs done_at = 0;
    net.Rpc(0, 256,
            [](net::Network::TypedReply reply) { reply(1024); },
            [&]() { done_at = sim.Now(); });
    sim.Run();
    // Two one-way delays + two server message costs + transfer times.
    EXPECT_GT(done_at, util::UsToNs(120));
    EXPECT_LT(done_at, util::UsToNs(140));
    EXPECT_EQ(net.bytes_to_clients(), 1024u);
}

TEST(Network, LargeResponsesBoundByClientNic)
{
    sim::Simulator sim;
    net::NetworkSpec spec;
    net::Network net(sim, spec, 1);
    // 118 MB at ~1.18 GB/s -> ~100 ms.
    util::TimeNs done_at = 0;
    net.Rpc(0, 64,
            [](net::Network::TypedReply reply) {
                reply(static_cast<uint64_t>(118e6));
            },
            [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_GT(done_at, util::MsToNs(100));
    EXPECT_LT(done_at, util::MsToNs(320));
}

TEST(Network, ServerNicSharedAcrossClients)
{
    sim::Simulator sim;
    net::NetworkSpec spec;
    spec.worker_per_byte_ns = 0;  // Isolate the NIC path.
    net::Network net(sim, spec, 4);
    // Four clients each pull ~236 MB: aggregate 944 MB at 2.36 GB/s
    // server-side = 400 ms minimum.
    int done = 0;
    for (uint32_t c = 0; c < 4; ++c) {
        net.Rpc(c, 64,
                [](net::Network::TypedReply reply) {
                    reply(static_cast<uint64_t>(236e6));
                },
                [&]() { ++done; });
    }
    sim.Run();
    EXPECT_EQ(done, 4);
    EXPECT_GT(sim.Now(), util::MsToNs(395));
}

TEST(Network, PerByteWorkerCostCharged)
{
    sim::Simulator sim;
    net::NetworkSpec fast;
    fast.worker_per_byte_ns = 0;
    net::NetworkSpec slow = fast;
    slow.worker_per_byte_ns = 2.0;

    auto run = [](net::NetworkSpec spec) {
        sim::Simulator s;
        net::Network net(s, spec, 1);
        util::TimeNs done_at = 0;
        net.Rpc(0, 64,
                [](net::Network::TypedReply reply) { reply(1000000); },
                [&]() { done_at = s.Now(); });
        s.Run();
        return done_at;
    };
    EXPECT_GT(run(slow), run(fast) + util::MsToNs(1));
}

}  // namespace
}  // namespace sdf
