#include "cluster/hash_ring.h"

#include <algorithm>

#include "util/assert.h"
#include "util/rng.h"

namespace sdf::cluster {

HashRing::HashRing(uint32_t nodes, uint32_t vnodes_per_node)
    : vnodes_per_node_(vnodes_per_node)
{
    SDF_CHECK_MSG(nodes > 0, "ring needs at least one node");
    SDF_CHECK_MSG(vnodes_per_node > 0, "ring needs at least one vnode");
    for (uint32_t n = 0; n < nodes; ++n) ids_.insert(n);
    Rebuild();
}

HashRing::HashRing(const std::vector<uint32_t> &node_ids,
                   uint32_t vnodes_per_node)
    : vnodes_per_node_(vnodes_per_node), ids_(node_ids.begin(), node_ids.end())
{
    SDF_CHECK_MSG(vnodes_per_node > 0, "ring needs at least one vnode");
    Rebuild();
}

void
HashRing::AddNode(uint32_t node)
{
    SDF_CHECK_MSG(ids_.insert(node).second, "node already on the ring");
    Rebuild();
}

void
HashRing::RemoveNode(uint32_t node)
{
    SDF_CHECK_MSG(ids_.erase(node) == 1, "node not on the ring");
    Rebuild();
}

void
HashRing::Rebuild()
{
    points_.clear();
    points_.reserve(uint64_t{ids_.size()} * vnodes_per_node_);
    for (uint32_t n : ids_) {
        for (uint32_t v = 0; v < vnodes_per_node_; ++v) {
            uint64_t state =
                uint64_t{n} * 0x9e3779b97f4a7c15ULL + v + 1;
            points_.emplace_back(util::SplitMix64(state), n);
        }
    }
    std::sort(points_.begin(), points_.end());
}

kv::ReplicaOrder
HashRing::ReplicasFor(uint64_t key, uint32_t replication) const
{
    SDF_CHECK_MSG(replication >= 1, "replication must be >= 1");
    const uint32_t want =
        std::min(replication, static_cast<uint32_t>(ids_.size()));
    kv::ReplicaOrder out;
    if (want == 0) return out;
    uint64_t state = key;
    const uint64_t h = util::SplitMix64(state);
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               std::make_pair(h, uint32_t{0}));
    for (size_t scanned = 0;
         scanned < points_.size() && out.size() < want; ++scanned) {
        if (it == points_.end()) it = points_.begin();
        const uint32_t node = it->second;
        if (std::find(out.begin(), out.end(), node) == out.end()) {
            out.push_back(node);
        }
        ++it;
    }
    SDF_CHECK(out.size() == want);
    return out;
}

std::pair<uint64_t, uint32_t>
HashRing::OwnerVnode(uint64_t key) const
{
    SDF_CHECK_MSG(!points_.empty(), "empty ring");
    uint64_t state = key;
    const uint64_t h = util::SplitMix64(state);
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               std::make_pair(h, uint32_t{0}));
    if (it == points_.end()) it = points_.begin();
    return *it;
}

}  // namespace sdf::cluster
