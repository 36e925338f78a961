/**
 * @file
 * R-way replication for degraded-mode operation.
 *
 * The paper's web-scale setting (§2.4, §5) keeps replicas of every object
 * on independent devices precisely because SDF drops the drive-internal
 * safety nets (no parity across channels, no super-capacitors): durability
 * is the distributed system's job.
 *
 * The mechanism lives in ReplicationEngine and is deliberately abstract
 * over *where* replicas are: a ReplicaSet maps a key to the ordered
 * replicas holding it and puts/gets into one replica. The same engine
 * therefore serves two deployments:
 *
 *  - ReplicatedKv: every key on every one of R local Store stacks (the
 *    single-box fault-tolerance model used by the fault campaign);
 *  - cluster::ClusterRouter: keys consistent-hash-sharded over N storage
 *    nodes with R-way replication, endpoints reached over the network.
 *
 * Semantics, in both cases:
 *
 *  - Put fans out to every selected replica; the ack carries overall
 *    success (at least one durable copy) and per-replica failures are
 *    counted.
 *  - Get reads the primary replica (selector order) and transparently
 *    fails over to the next replica when storage reports a typed error
 *    (uncorrectable data, dead channel, lost block).
 *  - A degraded read triggers read-repair: the value recovered from a
 *    surviving replica is re-replicated onto the replicas that failed,
 *    restoring R-way redundancy in the background.
 */
#ifndef SDF_KV_REPLICATED_STORE_H
#define SDF_KV_REPLICATED_STORE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/store.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "util/latency_recorder.h"

namespace sdf::kv {

/** Cumulative replication-layer statistics. */
struct ReplicatedKvStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t put_replica_failures = 0;  ///< Individual replica puts failed.
    uint64_t put_failures = 0;          ///< Puts with zero durable copies.
    uint64_t degraded_reads = 0;        ///< Served by a non-primary replica.
    uint64_t failed_reads = 0;          ///< Every replica errored.
    uint64_t re_replications = 0;       ///< Read-repair puts issued.
    uint64_t re_replication_failures = 0;
    /** Gets restarted with fresh placement after a membership change. */
    uint64_t epoch_restarts = 0;
    /** Ops rejected because the selector had no replicas (all nodes down). */
    uint64_t no_replica_rejects = 0;
};

/**
 * Where a ReplicationEngine's replicas live and how it reaches them:
 * placement (which replicas hold a key, in failover order) plus a put
 * and a get into one replica — a direct Store call, an RPC into a
 * cluster node, or anything else with put/get semantics. `PutTo` must ack
 * kOk only once the value is durable on that replica; `GetFrom` must report
 * res.ok == false on storage-level failure so the engine can fail over.
 */
class ReplicaSet
{
  public:
    virtual ~ReplicaSet() = default;

    /** Number of replicas the engine can address. */
    virtual uint32_t replica_count() const = 0;

    /**
     * Ordered replicas holding @p key: first is the primary, the rest are
     * failover targets; Put fans out to all of them. Deterministic and in
     * range; empty when no replica is reachable.
     */
    virtual ReplicaOrder Order(uint64_t key) = 0;

    /**
     * Membership epoch (cluster use). A Get snapshots it up front; when a
     * replica attempt fails and the epoch has moved meanwhile — the ring
     * changed under the op — the get restarts against fresh placement
     * instead of walking a stale replica list. Static placement keeps 0.
     */
    virtual uint64_t Epoch() const { return 0; }

    virtual void PutTo(uint32_t replica, uint64_t key, uint32_t value_size,
                     PutStatusCallback done,
                     std::shared_ptr<std::vector<uint8_t>> payload,
                     const OpContext &ctx) = 0;
    virtual void GetFrom(uint32_t replica, uint64_t key, GetCallback done,
                     const OpContext &ctx) = 0;
};

/** Replica placement/failover mechanics over an abstract ReplicaSet. */
class ReplicationEngine
{
  public:
    /** @param replicas Must outlive the engine. */
    ReplicationEngine(sim::Simulator &sim, ReplicaSet &replicas);

    ReplicationEngine(const ReplicationEngine &) = delete;
    ReplicationEngine &operator=(const ReplicationEngine &) = delete;

    /**
     * Store @p key on every selected replica. @p done receives true when
     * at least one replica persisted the value (the others are repaired
     * by later degraded reads).
     */
    void Put(uint64_t key, uint32_t value_size, PutCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
             OpContext ctx = {});

    /**
     * Typed Put: like Put, but @p done receives the aggregated
     * disposition — kOk on at least one durable copy, otherwise the most
     * backpressure-actionable failure any replica reported (overload
     * beats deadline beats storage error; see WorseStatus).
     */
    void PutTyped(uint64_t key, uint32_t value_size, PutStatusCallback done,
                  std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
                  OpContext ctx = {});

    /**
     * Read @p key with transparent failover: selected replicas are tried
     * in order until one serves the value. A miss on one replica also
     * fails over (a degraded-mode put may have landed on only some
     * replicas); the read is a miss only when every replica agrees. The
     * result's ok flag is false only when a replica failed at storage
     * level and none served the value; res.status then carries the worst
     * typed failure seen across the walk.
     */
    void Get(uint64_t key, GetCallback done, OpContext ctx = {});

    const ReplicatedKvStats &stats() const { return stats_; }

    /**
     * Latency from the primary replica's failure to the moment a
     * surviving replica served the value (per degraded read).
     */
    const util::LatencyRecorder &recovery_latencies() const
    {
        return recovery_latencies_;
    }

  private:
    /** One Put's fan-out: the replicas' acks join here. */
    struct PutJoin
    {
        uint32_t remaining = 0;
        uint32_t successes = 0;
        OpStatus worst = OpStatus::kOk;
        PutStatusCallback done;
        PutCallback done_bool;  ///< Put()'s untyped ack (instead of done).
    };

    /** One Get's walk over its replica order. */
    struct GetWalk
    {
        uint64_t key = 0;
        ReplicaOrder order;
        uint32_t attempt = 0;        ///< Index into order.
        util::TimeNs first_fail = 0;
        OpStatus worst = OpStatus::kOk;
        uint64_t epoch = 0;
        OpContext ctx;
        GetCallback done;
    };

    void StartPut(uint64_t key, uint32_t value_size,
                  std::shared_ptr<PutJoin> join,
                  std::shared_ptr<std::vector<uint8_t>> payload,
                  OpContext ctx);
    void OnReplicaPut(PutJoin &join, OpStatus s);
    static void Finish(PutJoin &join, OpStatus s);
    void DoGet(std::shared_ptr<GetWalk> walk);
    void OnReplicaGet(std::shared_ptr<GetWalk> walk, const GetResult &res);
    void Repair(uint64_t key, const GetResult &good,
                const ReplicaOrder &order, uint32_t failed_count);

    sim::Simulator &sim_;
    ReplicaSet &replicas_;
    /** Per-op records (see sim::BlockPool for their teardown safety). */
    sim::BlockPool join_pool_;
    sim::BlockPool walk_pool_;
    ReplicatedKvStats stats_;
    util::LatencyRecorder recovery_latencies_;
};

/**
 * R-way replication over independent local Store instances: every key on
 * every store, primary chosen by key hash. Thin policy wrapper over
 * ReplicationEngine.
 */
class ReplicatedKv : private ReplicaSet
{
  public:
    /** @param replicas One Store per failure domain; all must outlive us. */
    ReplicatedKv(sim::Simulator &sim, std::vector<Store *> replicas);

    ReplicatedKv(const ReplicatedKv &) = delete;
    ReplicatedKv &operator=(const ReplicatedKv &) = delete;

    uint32_t replica_count() const override
    {
        return static_cast<uint32_t>(stores_.size());
    }

    /** Primary replica index for @p key. */
    uint32_t PrimaryOf(uint64_t key) const
    {
        return static_cast<uint32_t>(key % stores_.size());
    }

    /** See ReplicationEngine::Put. */
    void
    Put(uint64_t key, uint32_t value_size, PutCallback done,
        std::shared_ptr<std::vector<uint8_t>> payload = nullptr)
    {
        engine_.Put(key, value_size, std::move(done), std::move(payload));
    }

    /** See ReplicationEngine::Get. */
    void Get(uint64_t key, GetCallback done)
    {
        engine_.Get(key, std::move(done));
    }

    const ReplicatedKvStats &stats() const { return engine_.stats(); }

    const util::LatencyRecorder &recovery_latencies() const
    {
        return engine_.recovery_latencies();
    }

  private:
    // ReplicaSet: every store holds every key; primary rotates by key.
    ReplicaOrder Order(uint64_t key) override;
    void PutTo(uint32_t replica, uint64_t key, uint32_t value_size,
             PutStatusCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload,
             const OpContext &ctx) override;
    void GetFrom(uint32_t replica, uint64_t key, GetCallback done,
             const OpContext &ctx) override;

    std::vector<Store *> stores_;
    ReplicationEngine engine_;
};

}  // namespace sdf::kv

#endif  // SDF_KV_REPLICATED_STORE_H
