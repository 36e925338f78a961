/**
 * @file
 * Shared cluster shape for the cluster-level tests: small SDF nodes on
 * fast NAND timing, a checked bulk preload, and a closed-loop read
 * driver through the client front door.
 */
#ifndef SDF_TESTS_CLUSTER_TEST_UTIL_H
#define SDF_TESTS_CLUSTER_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "nand/timing.h"
#include "util/units.h"

namespace sdf {

/** @p nodes two-slice nodes at 2% capacity with fast NAND timing and no
 *  host I/O-stack charges, R = @p replication. */
inline cluster::ClusterConfig
SmallCluster(uint32_t nodes, uint32_t replication)
{
    cluster::ClusterConfig cc;
    cc.nodes = nodes;
    cc.replication = replication;
    cc.node.kv.stack.capacity_scale = 0.02;
    cc.node.kv.stack.with_io_stack = false;
    cc.node.kv.store.slice_count = 2;
    cc.node.kv.stack.tune_sdf = [](core::SdfConfig &dc) {
        dc.flash.timing = nand::FastTestTiming();
    };
    return cc;
}

/** Cluster::Preload of @p count 16 KiB keys; every put must ack. The
 *  flush puts them on flash, so reads cost real device time. */
inline std::vector<uint64_t>
Preload(cluster::Cluster &cl, uint32_t count)
{
    const std::vector<uint64_t> keys = cl.Preload(count, 16 * util::kKiB);
    EXPECT_EQ(keys.size(), count);
    return keys;
}

/** Closed-loop reads through @p client, 4 wide, cycling over @p keys
 *  until @p reads completed; counts found values into @p served. */
inline void
DriveReads(sim::Simulator &sim, client::KvClient &client,
           const std::vector<uint64_t> &keys, int reads, uint64_t &served)
{
    int next = 0;
    std::function<void()> step = [&]() {
        if (next >= reads) return;
        client.Get(keys[next++ % keys.size()],
                   [&](const kv::GetResult &r) {
                       served += r.ok && r.found;
                       step();
                   });
    };
    for (int s = 0; s < 4; ++s) step();
    sim.Run();
}

}  // namespace sdf

#endif  // SDF_TESTS_CLUSTER_TEST_UTIL_H
