/**
 * @file
 * Consistent-hash ring with virtual nodes for key -> node placement.
 *
 * Each physical node contributes `vnodes_per_node` points on a 64-bit
 * ring; a key's replicas are the first R *distinct* nodes clockwise from
 * the key's hash. Virtual nodes smooth the load split (the classic
 * consistent-hashing construction), and the ring property keeps data
 * movement ~1/(N+1) when a node is added — the reason web-scale stores
 * shard this way rather than by `key % N`.
 *
 * Membership is dynamic: nodes can leave (failure) and rejoin (recovery).
 * Deterministic by construction: a node's ring points come from SplitMix64
 * over (node id, vnode) only, so every process builds the identical ring
 * and re-adding a previously removed node id reproduces the exact same
 * vnode layout it had before.
 */
#ifndef SDF_CLUSTER_HASH_RING_H
#define SDF_CLUSTER_HASH_RING_H

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "kv/types.h"

namespace sdf::cluster {

/** Key placement over a dynamic set of nodes. */
class HashRing
{
  public:
    /** Ring over node ids 0 .. @p nodes - 1. */
    explicit HashRing(uint32_t nodes, uint32_t vnodes_per_node = 64);

    /** Ring over an explicit id set (may be empty: a fully failed cluster). */
    HashRing(const std::vector<uint32_t> &node_ids,
             uint32_t vnodes_per_node = 64);

    uint32_t node_count() const
    {
        return static_cast<uint32_t>(ids_.size());
    }
    bool Contains(uint32_t node) const { return ids_.count(node) != 0; }
    /** Member ids in ascending order. */
    std::vector<uint32_t> node_ids() const
    {
        return {ids_.begin(), ids_.end()};
    }

    /** Join @p node (its vnode points depend only on its id). */
    void AddNode(uint32_t node);

    /** Leave: every key owned by @p node falls to its clockwise successor. */
    void RemoveNode(uint32_t node);

    /**
     * The ordered distinct nodes holding @p key: first is the primary,
     * the next are the clockwise successors. Returns
     * min(replication, node_count()) nodes — a ring smaller than the
     * replication factor degrades to as many distinct replicas as exist
     * (empty on an empty ring). At most kv::ReplicaOrder::kMaxReplicas.
     */
    kv::ReplicaOrder ReplicasFor(uint64_t key, uint32_t replication) const;

    /** Primary node for @p key (ring must be non-empty). */
    uint32_t PrimaryOf(uint64_t key) const { return ReplicasFor(key, 1)[0]; }

    /**
     * The vnode owning @p key: its ring point and the node it belongs to
     * (first point clockwise from the key's hash). For debugging lost-key
     * reports. Ring must be non-empty.
     */
    std::pair<uint64_t, uint32_t> OwnerVnode(uint64_t key) const;

  private:
    void Rebuild();

    uint32_t vnodes_per_node_;
    std::set<uint32_t> ids_;
    /** Sorted (hash point, node) pairs. */
    std::vector<std::pair<uint64_t, uint32_t>> points_;
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_HASH_RING_H
