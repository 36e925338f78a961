#include "kv/replicated_store.h"

#include <memory>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

ReplicationEngine::ReplicationEngine(sim::Simulator &sim,
                                     ReplicaSet &replicas)
    : sim_(sim), replicas_(replicas)
{
    SDF_CHECK_MSG(replicas_.replica_count() > 0,
                  "need at least one replica");
}

void
ReplicationEngine::Put(uint64_t key, uint32_t value_size, PutCallback done,
                       std::shared_ptr<std::vector<uint8_t>> payload,
                       OpContext ctx)
{
    auto join = sim::MakePooledShared<PutJoin>(join_pool_);
    join->done_bool = std::move(done);
    StartPut(key, value_size, std::move(join), std::move(payload), ctx);
}

void
ReplicationEngine::PutTyped(uint64_t key, uint32_t value_size,
                            PutStatusCallback done,
                            std::shared_ptr<std::vector<uint8_t>> payload,
                            OpContext ctx)
{
    auto join = sim::MakePooledShared<PutJoin>(join_pool_);
    join->done = std::move(done);
    StartPut(key, value_size, std::move(join), std::move(payload), ctx);
}

void
ReplicationEngine::Finish(PutJoin &join, OpStatus s)
{
    if (join.done) join.done(s);
    if (join.done_bool) join.done_bool(s == OpStatus::kOk);
}

void
ReplicationEngine::StartPut(uint64_t key, uint32_t value_size,
                            std::shared_ptr<PutJoin> join,
                            std::shared_ptr<std::vector<uint8_t>> payload,
                            OpContext ctx)
{
    ++stats_.puts;
    const ReplicaOrder order = replicas_.Order(key);
    if (order.empty()) {
        // Every node that could hold the key is out of the membership.
        ++stats_.no_replica_rejects;
        ++stats_.put_failures;
        sim_.Post([join = std::move(join)]() {
            Finish(*join, OpStatus::kError);
        });
        return;
    }
    join->remaining = order.size();
    for (uint32_t replica : order) {
        SDF_CHECK(replica < replicas_.replica_count());
        replicas_.PutTo(
            replica, key, value_size,
            [this, join](OpStatus s) { OnReplicaPut(*join, s); }, payload,
            ctx);
        // Only the first replica's RPC writes the request's critical-path
        // span; a second concurrent writer would corrupt the timeline.
        // Later replicas keep the trace identity but no span.
        ctx.path = nullptr;
    }
}

void
ReplicationEngine::OnReplicaPut(PutJoin &join, OpStatus s)
{
    if (s == OpStatus::kOk) {
        ++join.successes;
    } else {
        ++stats_.put_replica_failures;
        join.worst = WorseStatus(join.worst, s);
    }
    if (--join.remaining > 0) return;
    if (join.successes > 0) {
        Finish(join, OpStatus::kOk);
        return;
    }
    ++stats_.put_failures;
    Finish(join, join.worst == OpStatus::kOk ? OpStatus::kError
                                             : join.worst);
}

void
ReplicationEngine::Get(uint64_t key, GetCallback done, OpContext ctx)
{
    ++stats_.gets;
    auto walk = sim::MakePooledShared<GetWalk>(walk_pool_);
    walk->order = replicas_.Order(key);
    if (walk->order.empty()) {
        ++stats_.no_replica_rejects;
        ++stats_.failed_reads;
        sim_.Post([done = std::move(done)]() {
            if (done) {
                GetResult res;
                res.ok = false;
                res.status = OpStatus::kError;
                done(res);
            }
        });
        return;
    }
    walk->key = key;
    walk->epoch = replicas_.Epoch();
    walk->ctx = std::move(ctx);
    walk->done = std::move(done);
    DoGet(std::move(walk));
}

namespace {

/** Typed failure a replica's GetResult contributes (kOk = clean miss). */
OpStatus
FailureStatus(const GetResult &res)
{
    return res.ok ? OpStatus::kOk : res.status;
}

}  // namespace

void
ReplicationEngine::DoGet(std::shared_ptr<GetWalk> walk)
{
    GetWalk &w = *walk;
    if (w.attempt == w.order.size()) {
        // Exhausted. All clean misses -> an authoritative miss; any
        // storage failure along the way -> a failed read.
        GetResult res;
        res.found = false;
        res.ok = w.worst == OpStatus::kOk;
        res.status = w.worst;
        if (!res.ok) ++stats_.failed_reads;
        if (w.done) w.done(res);
        return;
    }
    const uint32_t replica = w.order[w.attempt];
    SDF_CHECK(replica < replicas_.replica_count());
    replicas_.GetFrom(
        replica, w.key,
        [this, walk = std::move(walk)](const GetResult &res) mutable {
            OnReplicaGet(std::move(walk), res);
        },
        w.ctx);
}

void
ReplicationEngine::OnReplicaGet(std::shared_ptr<GetWalk> walk,
                                const GetResult &res)
{
    GetWalk &w = *walk;
    if (!res.ok || !res.found) {
        if (w.attempt == 0) w.first_fail = sim_.Now();
        w.worst = WorseStatus(w.worst, FailureStatus(res));
        // Membership moved while we were waiting (a node died or
        // rejoined): the replica list is stale — restart against fresh
        // placement. Bounded by the number of epoch bumps.
        if (const uint64_t now_epoch = replicas_.Epoch();
            now_epoch != w.epoch) {
            ++stats_.epoch_restarts;
            w.order = replicas_.Order(w.key);
            if (w.order.empty()) {
                ++stats_.no_replica_rejects;
                ++stats_.failed_reads;
                if (w.done) {
                    GetResult fail;
                    fail.ok = false;
                    fail.status = WorseStatus(w.worst, OpStatus::kError);
                    w.done(fail);
                }
                return;
            }
            w.attempt = 0;
            w.epoch = now_epoch;
            DoGet(std::move(walk));
            return;
        }
        // Storage failure — or a miss on this replica, which may just have
        // lost the put that a later replica acked (degraded-mode write).
        // Either way, ask the next one.
        ++w.attempt;
        DoGet(std::move(walk));
        return;
    }
    if (w.attempt > 0) {
        ++stats_.degraded_reads;
        recovery_latencies_.Record(sim_.Now() - w.first_fail);
        // Read-repair: restore redundancy on the replicas that failed or
        // missed ahead of this one.
        Repair(w.key, res, w.order, w.attempt);
    }
    if (w.done) w.done(res);
}

void
ReplicationEngine::Repair(uint64_t key, const GetResult &good,
                          const ReplicaOrder &order, uint32_t failed_count)
{
    for (uint32_t i = 0; i < failed_count; ++i) {
        ++stats_.re_replications;
        replicas_.PutTo(
            order[i], key, good.value_size,
            [this](OpStatus s) {
                if (s != OpStatus::kOk) ++stats_.re_replication_failures;
            },
            good.payload, OpContext{});
    }
}

ReplicatedKv::ReplicatedKv(sim::Simulator &sim, std::vector<Store *> replicas)
    : stores_(std::move(replicas)), engine_(sim, *this)
{
    SDF_CHECK_MSG(!stores_.empty(), "need at least one replica");
    SDF_CHECK_MSG(stores_.size() <= ReplicaOrder::kMaxReplicas,
                  "too many replicas");
    for (Store *s : stores_) SDF_CHECK(s != nullptr);
}

ReplicaOrder
ReplicatedKv::Order(uint64_t key)
{
    const size_t n = stores_.size();
    ReplicaOrder order;
    for (size_t i = 0; i < n; ++i) {
        order.push_back(static_cast<uint32_t>((key + i) % n));
    }
    return order;
}

void
ReplicatedKv::PutTo(uint32_t replica, uint64_t key, uint32_t value_size,
                  PutStatusCallback done,
                  std::shared_ptr<std::vector<uint8_t>> payload,
                  const OpContext & /*ctx*/)
{
    // Local stores know nothing of deadlines; map bool -> typed.
    stores_[replica]->Put(
        key, value_size,
        [done = std::move(done)](bool ok) {
            if (done) done(ok ? OpStatus::kOk : OpStatus::kError);
        },
        std::move(payload));
}

void
ReplicatedKv::GetFrom(uint32_t replica, uint64_t key, GetCallback done,
                  const OpContext & /*ctx*/)
{
    stores_[replica]->Get(key, std::move(done));
}

}  // namespace sdf::kv
