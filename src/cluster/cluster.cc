#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "cluster/rebalancer.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace sdf::cluster {

namespace {

/** Request-framing overhead charged on top of the payload. */
constexpr uint64_t kRpcHeaderBytes = 64;
/** Small fixed responses: a put ack, or a get miss/failure notice. */
constexpr uint64_t kAckBytes = 64;
constexpr uint64_t kNackBytes = 16;

/** Map a transport disposition onto the KV-level one. */
kv::OpStatus
CodeToStatus(net::RpcCode code)
{
    switch (code) {
        case net::RpcCode::kOk: return kv::OpStatus::kOk;
        case net::RpcCode::kOverloaded: return kv::OpStatus::kOverloaded;
        case net::RpcCode::kDeadlineExceeded:
            return kv::OpStatus::kDeadlineExceeded;
    }
    return kv::OpStatus::kError;
}

}  // namespace

StorageNode::StorageNode(sim::Simulator &sim, uint32_t id,
                         const NodeConfig &cfg)
    : sim_(sim), id_(id), clients_(cfg.clients),
      admission_cap_(cfg.admission_cap), store_cfg_(cfg.kv.store)
{
    SDF_CHECK(clients_ > 0);
    // Everything built inside this scope — the network endpoint, the
    // device, the block layer, every slice — self-registers its metrics
    // under "node<id>.*".
    obs::Hub *hub = sim.hub();
    obs::MetricsScope scope(hub != nullptr ? &hub->metrics() : nullptr,
                            "node" + std::to_string(id));
    net_ = std::make_unique<net::Network>(sim, cfg.net, clients_);
    stack_ = testbed::BuildKvStack(sim, cfg.kv, &journal_);

    if (hub != nullptr) {
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("recovery");
        hub_ = hub;
        m.RegisterCounter(metric_prefix_ + ".restarts", &recovery_.restarts);
        m.RegisterCounter(metric_prefix_ + ".patches_scanned",
                          &recovery_.patches_scanned);
        m.RegisterCounter(metric_prefix_ + ".bytes_scanned",
                          &recovery_.bytes_scanned);
        m.RegisterCounter(metric_prefix_ + ".wal_records_replayed",
                          &recovery_.wal_records_replayed);
        m.RegisterGauge(metric_prefix_ + ".last_recovery_ms", [this]() {
            return static_cast<double>(recovery_.last_recovery_ns) / 1e6;
        });
        m.RegisterGauge(metric_prefix_ + ".running", [this]() {
            return running_ ? 1.0 : 0.0;
        });
        admission_prefix_ = m.UniquePrefix("admission");
        m.RegisterCounter(admission_prefix_ + ".admitted",
                          &admission_.admitted);
        m.RegisterCounter(admission_prefix_ + ".shed_overload",
                          &admission_.shed_overload);
        m.RegisterCounter(admission_prefix_ + ".peak_inflight",
                          &admission_.peak_inflight);
        m.RegisterGauge(admission_prefix_ + ".inflight", [this]() {
            return static_cast<double>(inflight_);
        });
        if (hub->trace() != nullptr) {
            trace_ = hub->trace();
            trace_track_ = trace_->RegisterTrack(
                "cluster", "node" + std::to_string(id));
        }
    }
}

void
StorageNode::EmitServerEvent(const char *name, util::TimeNs start,
                             uint64_t trace_id)
{
    if (trace_ == nullptr || trace_id == 0) return;
    trace_->Complete(trace_track_, name, start, sim_.Now() - start,
                     trace_id);
}

StorageNode::~StorageNode()
{
    if (hub_ != nullptr) {
        hub_->metrics().UnregisterPrefix(metric_prefix_);
        hub_->metrics().UnregisterPrefix(admission_prefix_);
    }
}

bool
StorageNode::Accept(const char *name, uint64_t trace_id,
                    const net::Network::TypedReply &reply)
{
    // A stopped process doesn't answer: the request just dies and the
    // client times out + fails over.
    if (!running_) return false;
    if (admission_cap_ != 0 && inflight_ >= admission_cap_) {
        // Shed before any storage work: a fast typed nack the caller must
        // not blindly retry.
        ++admission_.shed_overload;
        EmitServerEvent(name, sim_.Now(), trace_id);
        reply(kNackBytes, net::RpcCode::kOverloaded);
        return false;
    }
    ++admission_.admitted;
    ++inflight_;
    admission_.peak_inflight = std::max(admission_.peak_inflight, inflight_);
    return true;
}

void
StorageNode::Release(uint64_t inc)
{
    if (inc != incarnation_ || inflight_ == 0) return;
    --inflight_;
}

void
StorageNode::Slowed(util::TimeNs start, sim::Callback fn)
{
    if (fail_slow_mult_ <= 1.0) {
        fn();
        return;
    }
    const auto extra = static_cast<util::TimeNs>(
        (fail_slow_mult_ - 1.0) * static_cast<double>(sim_.Now() - start));
    if (extra == 0) {
        fn();
        return;
    }
    sim_.Schedule(extra, std::move(fn));
}

void
StorageNode::Answer(const char *name, util::TimeNs t0, uint64_t trace_id,
                    net::Network::TypedReply reply, uint64_t bytes)
{
    Slowed(t0, [this, name, reply = std::move(reply), bytes, t0,
                trace_id]() {
        // The process may have died during the fail-slow delay.
        if (!running_) return;
        EmitServerEvent(name, t0, trace_id);
        reply(bytes, net::RpcCode::kOk);
    });
}

void
StorageNode::Stop()
{
    SDF_CHECK_MSG(running_, "node already stopped");
    running_ = false;
    // In-flight admissions die with the process; their Release()s carry
    // the old incarnation and become no-ops.
    ++incarnation_;
    inflight_ = 0;
    stack_.store->Detach();
    retired_.push_back(std::move(stack_.store));
}

void
StorageNode::Restart(sim::Callback done)
{
    SDF_CHECK_MSG(!running_, "node is still running");
    SDF_CHECK_MSG(stack_.store == nullptr, "restart already in progress");
    ++recovery_.restarts;
    const util::TimeNs t0 = sim_.Now();
    recovery_.wal_records_replayed += journal_.TotalWalRecords();
    // Patches to scan: snapshot before the store replays the WAL (replay
    // can flush new patches, which need no scan — they were just written).
    std::vector<uint64_t> scan;
    for (const kv::SliceJournal &sj : journal_.slices) {
        for (const auto &[pid, footer] : sj.patches) scan.push_back(pid);
    }
    {
        obs::Hub *hub = sim_.hub();
        obs::MetricsScope scope(hub != nullptr ? &hub->metrics() : nullptr,
                                "node" + std::to_string(id_));
        stack_.store = std::make_unique<kv::Store>(
            sim_, *stack_.storage.storage, store_cfg_, &journal_);
    }
    // The recovery scan: one full read of every recovered patch (footer +
    // entry table) at internal priority. Only after the last read lands
    // does the node serve again.
    auto finish = [this, t0, done = std::move(done)]() {
        recovery_.last_recovery_ns = sim_.Now() - t0;
        running_ = true;
        if (done) done();
    };
    if (scan.empty()) {
        sim_.Post(std::move(finish));
        return;
    }
    auto remaining = std::make_shared<size_t>(scan.size());
    auto shared_finish =
        std::make_shared<sim::Callback>(std::move(finish));
    for (uint64_t pid : scan) {
        ++recovery_.patches_scanned;
        recovery_.bytes_scanned += stack_.storage.storage->patch_bytes();
        stack_.storage.storage->GetRange(
            pid, 0, stack_.storage.storage->patch_bytes(),
            [remaining, shared_finish](core::IoStatus) {
                if (--*remaining == 0) (*shared_finish)();
            },
            nullptr, blocklayer::kInternalPriority);
    }
}

void
StorageNode::CollectLive(std::map<uint64_t, uint32_t> &out) const
{
    if (!running_ || stack_.store == nullptr) return;
    stack_.store->CollectLive(out);
}

void
StorageNode::StreamIn(uint64_t key, uint32_t value_size,
                      kv::PutCallback done,
                      std::shared_ptr<std::vector<uint8_t>> payload)
{
    if (!running_) {
        sim_.Post([done = std::move(done)]() {
            if (done) done(false);
        });
        return;
    }
    const uint32_t client = next_client_++ % clients_;
    net_->Bulk(client, uint64_t{value_size} + kRpcHeaderBytes,
               [this, key, value_size, done = std::move(done),
                payload = std::move(payload)]() mutable {
                   if (!running_) {
                       if (done) done(false);
                       return;
                   }
                   store().Put(key, value_size, std::move(done),
                               std::move(payload));
               });
}

void
StorageNode::StreamOut(uint64_t key, kv::GetCallback done)
{
    kv::GetResult dead;
    dead.ok = false;
    dead.status = kv::OpStatus::kError;
    if (!running_) {
        sim_.Post([done = std::move(done), dead]() { done(dead); });
        return;
    }
    store().Get(key, [this, done = std::move(done),
                      dead](const kv::GetResult &r) {
        done(running_ ? r : dead);
    });
}

std::shared_ptr<StorageNode::Request>
StorageNode::NewRequest(uint64_t key, const kv::OpContext &ctx,
                        FailSlowBreaker &breaker)
{
    auto req = sim::MakePooledShared<Request>(request_pool_);
    req->node = this;
    req->key = key;
    req->sent = sim_.Now();
    req->breaker = &breaker;
    req->trace_id = ctx.trace.trace_id;
    req->span = ctx.path;
    return req;
}

void
StorageNode::Sample(FailSlowBreaker &breaker, util::TimeNs sent,
                    net::RpcCode code)
{
    if (code != net::RpcCode::kOverloaded) {
        breaker.Record(id_, sim_.Now() - sent);
    }
}

void
StorageNode::Put(uint64_t key, uint32_t value_size,
                 std::shared_ptr<std::vector<uint8_t>> payload,
                 const kv::OpContext &ctx, kv::PutStatusCallback done,
                 FailSlowBreaker &breaker)
{
    const uint32_t client = next_client_++ % clients_;
    auto req = NewRequest(key, ctx, breaker);
    req->value_size = value_size;
    req->payload = std::move(payload);
    req->put_done = std::move(done);
    net_->RpcTyped(
        client, uint64_t{value_size} + kRpcHeaderBytes, ctx.deadline,
        [req](net::Network::TypedReply reply) {
            req->node->ServePut(req, std::move(reply));
        },
        [req](net::RpcCode code) {
            req->node->Sample(*req->breaker, req->sent, code);
            if (req->put_done) req->put_done(CodeToStatus(code));
        },
        ctx.path);
}

void
StorageNode::ServePut(const std::shared_ptr<Request> &req,
                      net::Network::TypedReply reply)
{
    if (!Accept("server.put", req->trace_id, reply)) return;
    const util::TimeNs t0 = sim_.Now();
    const uint64_t inc = incarnation_;
    if (req->span) req->span->Enter(obs::Stage::kStorage, t0);
    // Re-puts from RPC retries are idempotent: the LSM just writes the
    // same (key, size) again.
    store().Put(
        req->key, req->value_size,
        [req, reply = std::move(reply), t0, inc](bool ok) {
            StorageNode &n = *req->node;
            n.Release(inc);
            if (req->span) {
                req->span->Enter(obs::Stage::kServerHandle, n.sim_.Now());
            }
            // Only a durable put acks; a storage failure stays silent so
            // the client times out and retries (and the engine eventually
            // fails over). The same goes for an ack racing a Stop(): the
            // process died before replying.
            if (!ok || !n.running_) return;
            n.Answer("server.put", t0, req->trace_id, reply, kAckBytes);
        },
        req->payload);
}

void
StorageNode::Get(uint64_t key, const kv::OpContext &ctx,
                 kv::GetCallback done, FailSlowBreaker &breaker)
{
    const uint32_t client = next_client_++ % clients_;
    auto req = NewRequest(key, ctx, breaker);
    req->get_done = std::move(done);
    net_->RpcTyped(
        client, kRpcHeaderBytes, ctx.deadline,
        [req](net::Network::TypedReply reply) {
            req->node->ServeGet(req, std::move(reply));
        },
        [req](net::RpcCode code) { req->node->GetDone(*req, code); },
        ctx.path);
}

void
StorageNode::ServeGet(const std::shared_ptr<Request> &req,
                      net::Network::TypedReply reply)
{
    if (!Accept("server.get", req->trace_id, reply)) return;
    const util::TimeNs t0 = sim_.Now();
    const uint64_t inc = incarnation_;
    if (req->span) req->span->Enter(obs::Stage::kStorage, t0);
    store().Get(req->key, [req, reply = std::move(reply), t0,
                           inc](const kv::GetResult &r) {
        StorageNode &n = *req->node;
        n.Release(inc);
        if (!n.running_) return;
        if (req->span) {
            req->span->Enter(obs::Stage::kServerHandle, n.sim_.Now());
        }
        req->result = r;
        // Failures/misses reply fast (small nack) so the router fails
        // over to the next replica immediately instead of waiting out the
        // retry ladder.
        const uint64_t bytes = r.ok && r.found
                                   ? uint64_t{r.value_size} + kRpcHeaderBytes
                                   : kNackBytes;
        n.Answer("server.get", t0, req->trace_id, reply, bytes);
    });
}

void
StorageNode::GetDone(Request &req, net::RpcCode code)
{
    Sample(*req.breaker, req.sent, code);
    if (code == net::RpcCode::kOk) {
        req.get_done(req.result);
        return;
    }
    kv::GetResult dead;
    dead.ok = false;
    dead.status = CodeToStatus(code);
    req.get_done(dead);
}

void
StorageNode::BatchGet(std::vector<uint64_t> keys, const kv::OpContext &ctx,
                      BatchGetCallback done, FailSlowBreaker &breaker)
{
    SDF_CHECK_MSG(!keys.empty(), "empty batch");
    const uint32_t client = next_client_++ % clients_;
    const uint64_t request_bytes = kRpcHeaderBytes + 8 * keys.size();
    auto req = sim::MakePooledShared<BatchRequest>(batch_pool_);
    req->node = this;
    req->sent = sim_.Now();
    req->breaker = &breaker;
    req->trace_id = ctx.trace.trace_id;
    req->span = ctx.path;
    req->keys = std::move(keys);
    req->done = std::move(done);
    net_->RpcTyped(
        client, request_bytes, ctx.deadline,
        [req](net::Network::TypedReply reply) {
            req->node->ServeBatch(req, std::move(reply));
        },
        [req](net::RpcCode code) { req->node->BatchDone(*req, code); },
        ctx.path);
}

void
StorageNode::ServeBatch(const std::shared_ptr<BatchRequest> &req,
                        net::Network::TypedReply reply)
{
    // The whole batch costs one admission slot: coalescing is how a
    // client *reduces* pressure, so it must not multiply it.
    if (!Accept("server.batch_get", req->trace_id, reply)) return;
    const util::TimeNs t0 = sim_.Now();
    if (req->span) req->span->Enter(obs::Stage::kStorage, t0);
    req->results.assign(req->keys.size(), kv::GetResult{});
    auto serve = sim::MakePooledShared<BatchServe>(batch_serve_pool_);
    serve->req = req;
    serve->reply = std::move(reply);
    serve->t0 = t0;
    serve->inc = incarnation_;
    serve->remaining = req->keys.size();
    for (size_t i = 0; i < req->keys.size(); ++i) {
        store().Get(req->keys[i], [serve, i](const kv::GetResult &r) {
            BatchRequest &b = *serve->req;
            StorageNode &n = *b.node;
            b.results[i] = r;
            if (--serve->remaining > 0) return;
            n.Release(serve->inc);
            if (!n.running_) return;
            if (b.span) b.span->Enter(obs::Stage::kServerHandle, n.sim_.Now());
            uint64_t bytes = kRpcHeaderBytes;
            for (const kv::GetResult &res : b.results) {
                bytes += res.ok && res.found
                             ? uint64_t{res.value_size} + kRpcHeaderBytes
                             : kNackBytes;
            }
            n.Answer("server.batch_get", serve->t0, b.trace_id, serve->reply,
                     bytes);
        });
    }
}

void
StorageNode::BatchDone(BatchRequest &req, net::RpcCode code)
{
    // One service-time sample per batch RPC.
    Sample(*req.breaker, req.sent, code);
    if (code == net::RpcCode::kOk && req.results.size() == req.keys.size()) {
        req.done(req.results);
        return;
    }
    std::vector<kv::GetResult> fail(req.keys.size());
    for (kv::GetResult &r : fail) {
        r.ok = false;
        r.status = CodeToStatus(code);
    }
    req.done(fail);
}

void
StorageNode::Scan(uint64_t start_key, uint32_t limit,
                  std::function<bool(uint64_t)> owned, kv::OpContext ctx,
                  ScanDoneCallback done)
{
    const uint32_t client = next_client_++ % clients_;
    // The request carries (start_key, limit) plus the caller's owned
    // vnode ranges; the range list is modeled at a flat 256 bytes.
    const uint64_t request_bytes = kRpcHeaderBytes + 16 + 256;
    auto result = std::make_shared<kv::ScanResult>();
    net_->RpcTyped(
        client, request_bytes, ctx.deadline,
        [this, start_key, limit, owned = std::move(owned), result,
         span = ctx.path,
         trace_id = ctx.trace.trace_id](net::Network::TypedReply reply) {
            // Like a batch, the whole scan costs one admission slot: it
            // is one request however many keys it touches.
            if (!Accept("server.scan", trace_id, reply)) return;
            const util::TimeNs t0 = sim_.Now();
            const uint64_t inc = incarnation_;
            if (span) span->Enter(obs::Stage::kStorage, t0);
            store().Scan(
                start_key, limit,
                [this, inc, t0, result, span, trace_id,
                 reply = std::move(reply)](const kv::ScanResult &r) {
                    Release(inc);
                    if (!running_) return;
                    if (span) {
                        span->Enter(obs::Stage::kServerHandle, sim_.Now());
                    }
                    *result = r;
                    // The response streams the scanned values plus 16
                    // bytes of (key, size) framing per entry.
                    const uint64_t bytes =
                        r.ok ? kRpcHeaderBytes + r.scanned_bytes +
                                   16 * r.entries.size()
                             : kNackBytes;
                    Answer("server.scan", t0, trace_id, reply, bytes);
                },
                owned);
        },
        [result, done = std::move(done)](net::RpcCode code) {
            if (code != net::RpcCode::kOk) {
                kv::ScanResult fail;
                fail.ok = false;
                fail.status = CodeToStatus(code);
                done(std::move(fail));
            } else {
                done(std::move(*result));
            }
        },
        ctx.path);
}

void
StorageNode::FlushAll()
{
    if (!running_) return;
    kv::Store &s = store();
    for (uint32_t i = 0; i < s.slice_count(); ++i) s.slice(i).Flush();
}

ClusterRouter::ClusterRouter(sim::Simulator &sim,
                             const std::vector<StorageNode *> &nodes,
                             uint32_t replication, uint32_t vnodes_per_node,
                             const BreakerConfig &breaker)
    : sim_(sim),
      ring_(static_cast<uint32_t>(nodes.size()), vnodes_per_node),
      replication_(replication),
      node_puts_(nodes.size(), 0),
      node_gets_(nodes.size(), 0),
      nodes_(nodes),
      breaker_(static_cast<uint32_t>(nodes.size()), breaker)
{
    SDF_CHECK_MSG(replication >= 1 && replication <= nodes.size(),
                  "replication must be in [1, nodes]");
    SDF_CHECK_MSG(replication <= kv::ReplicaOrder::kMaxReplicas,
                  "replication above kv::ReplicaOrder::kMaxReplicas");
    // Replica i is node i: the breaker and the node counters index by id.
    for (size_t i = 0; i < nodes.size(); ++i) SDF_CHECK(nodes[i]->id() == i);
    hub_ = sim.hub();
    if (hub_ != nullptr) {
        obs::MetricsRegistry &m = hub_->metrics();
        metric_prefix_ = m.UniquePrefix("cluster");
        const ReplicationStats &st = stats_;
        m.RegisterCounter(metric_prefix_ + ".puts", &st.puts);
        m.RegisterCounter(metric_prefix_ + ".gets", &st.gets);
        m.RegisterCounter(metric_prefix_ + ".put_failures",
                          &st.put_failures);
        m.RegisterCounter(metric_prefix_ + ".put_replica_failures",
                          &st.put_replica_failures);
        m.RegisterCounter(metric_prefix_ + ".degraded_reads",
                          &st.degraded_reads);
        m.RegisterCounter(metric_prefix_ + ".failed_reads",
                          &st.failed_reads);
        m.RegisterCounter(metric_prefix_ + ".re_replications",
                          &st.re_replications);
        m.RegisterCounter(metric_prefix_ + ".epoch_restarts",
                          &st.epoch_restarts);
        m.RegisterCounter(metric_prefix_ + ".no_replica_rejects",
                          &st.no_replica_rejects);
        m.RegisterCounter(metric_prefix_ + ".scans", &scans_);
        m.RegisterCounter(metric_prefix_ + ".scan_keys", &scan_keys_);
        m.RegisterCounter(metric_prefix_ + ".scan_failures",
                          &scan_failures_);
        m.RegisterGauge(metric_prefix_ + ".epoch", [this]() {
            return static_cast<double>(epoch_);
        });
        m.RegisterGauge(metric_prefix_ + ".live_nodes", [this]() {
            return static_cast<double>(ring_.node_count());
        });
        m.RegisterHistogram(metric_prefix_ + ".recovery_latency_ns",
                            [this]() {
                                return &recovery_latencies().histogram();
                            });
        m.RegisterCounter(metric_prefix_ + ".breaker.trips",
                          &breaker_.stats().trips);
        m.RegisterCounter(metric_prefix_ + ".breaker.resets",
                          &breaker_.stats().resets);
        m.RegisterCounter(metric_prefix_ + ".breaker.reroutes",
                          &breaker_.stats().reroutes);
        m.RegisterGauge(metric_prefix_ + ".breaker.open_nodes", [this]() {
            return static_cast<double>(breaker_.open_count());
        });
    }
}

kv::ReplicaOrder
ClusterRouter::ReadOrder(uint64_t key)
{
    const kv::ReplicaOrder order = ring_.ReplicasFor(key, replication_);
    if (!breaker_.AnyOpen() || order.size() < 2) return order;
    // Stable partition: breaker-open nodes move to the back, both groups
    // keeping their ring order.
    kv::ReplicaOrder demoted;
    for (uint32_t n : order) {
        if (!breaker_.IsOpen(n)) demoted.push_back(n);
    }
    for (uint32_t n : order) {
        if (breaker_.IsOpen(n)) demoted.push_back(n);
    }
    if (demoted.front() != order.front()) breaker_.CountReroute();
    return demoted;
}

void
ClusterRouter::PutTo(uint32_t node, uint64_t key, uint32_t value_size,
                     kv::PutStatusCallback done,
                     std::shared_ptr<std::vector<uint8_t>> payload,
                     const kv::OpContext &ctx)
{
    SDF_CHECK(node < nodes_.size());
    ++node_puts_[node];
    nodes_[node]->Put(key, value_size, std::move(payload), ctx,
                      std::move(done), breaker_);
}

void
ClusterRouter::GetAt(uint32_t node, uint64_t key, const kv::OpContext &ctx,
                     kv::GetCallback done)
{
    SDF_CHECK(node < nodes_.size());
    ++node_gets_[node];
    nodes_[node]->Get(key, ctx, std::move(done), breaker_);
}

void
ClusterRouter::PutTyped(uint64_t key, uint32_t value_size,
                        kv::PutStatusCallback done,
                        std::shared_ptr<std::vector<uint8_t>> payload,
                        kv::OpContext ctx)
{
    ++stats_.puts;
    auto join = sim::MakePooledShared<PutJoin>(join_pool_);
    join->done = std::move(done);
    const kv::ReplicaOrder order = ReadOrder(key);
    if (order.empty()) {
        // Every node that could hold the key is out of the membership.
        ++stats_.no_replica_rejects;
        ++stats_.put_failures;
        sim_.Post([join = std::move(join)]() {
            if (join->done) join->done(kv::OpStatus::kError);
        });
        return;
    }
    join->remaining = order.size();
    for (uint32_t node : order) {
        PutTo(
            node, key, value_size,
            [this, join](kv::OpStatus s) { OnReplicaPut(*join, s); },
            payload, ctx);
        // Only the first replica's RPC writes the request's critical-path
        // span; a second concurrent writer would corrupt the timeline.
        // Later replicas keep the trace identity but no span.
        ctx.path = nullptr;
    }
}

void
ClusterRouter::OnReplicaPut(PutJoin &join, kv::OpStatus s)
{
    if (s == kv::OpStatus::kOk) {
        ++join.successes;
    } else {
        ++stats_.put_replica_failures;
        join.worst = kv::WorseStatus(join.worst, s);
    }
    if (--join.remaining > 0) return;
    kv::OpStatus result = kv::OpStatus::kOk;
    if (join.successes == 0) {
        ++stats_.put_failures;
        result = join.worst == kv::OpStatus::kOk ? kv::OpStatus::kError
                                                 : join.worst;
    }
    if (join.done) join.done(result);
}

void
ClusterRouter::Get(uint64_t key, kv::GetCallback done, kv::OpContext ctx)
{
    ++stats_.gets;
    auto walk = sim::MakePooledShared<GetWalk>(walk_pool_);
    walk->order = ReadOrder(key);
    if (walk->order.empty()) {
        ++stats_.no_replica_rejects;
        ++stats_.failed_reads;
        sim_.Post([done = std::move(done)]() {
            if (done) {
                kv::GetResult res;
                res.ok = false;
                res.status = kv::OpStatus::kError;
                done(res);
            }
        });
        return;
    }
    walk->key = key;
    walk->epoch = epoch_;
    walk->ctx = std::move(ctx);
    walk->done = std::move(done);
    DoGet(std::move(walk));
}

void
ClusterRouter::DoGet(std::shared_ptr<GetWalk> walk)
{
    GetWalk &w = *walk;
    if (w.attempt == w.order.size()) {
        // Exhausted. All clean misses -> an authoritative miss; any
        // failure along the way -> a failed read.
        kv::GetResult res;
        res.found = false;
        res.ok = w.worst == kv::OpStatus::kOk;
        res.status = w.worst;
        if (!res.ok) ++stats_.failed_reads;
        if (w.done) w.done(res);
        return;
    }
    GetAt(w.order[w.attempt], w.key, w.ctx,
          [this, walk = std::move(walk)](const kv::GetResult &res) mutable {
              OnReplicaGet(std::move(walk), res);
          });
}

void
ClusterRouter::OnReplicaGet(std::shared_ptr<GetWalk> walk,
                            const kv::GetResult &res)
{
    GetWalk &w = *walk;
    if (!res.ok || !res.found) {
        if (w.attempt == 0) w.first_fail = sim_.Now();
        // A clean miss contributes kOk: only typed failures make the
        // walk's result a failed read.
        w.worst = kv::WorseStatus(w.worst,
                                  res.ok ? kv::OpStatus::kOk : res.status);
        // Membership moved while we were waiting (a node died or
        // rejoined): the replica list is stale — restart against fresh
        // placement. Bounded by the number of epoch bumps.
        if (epoch_ != w.epoch) {
            ++stats_.epoch_restarts;
            w.order = ReadOrder(w.key);
            if (w.order.empty()) {
                ++stats_.no_replica_rejects;
                ++stats_.failed_reads;
                if (w.done) {
                    kv::GetResult fail;
                    fail.ok = false;
                    fail.status =
                        kv::WorseStatus(w.worst, kv::OpStatus::kError);
                    w.done(fail);
                }
                return;
            }
            w.attempt = 0;
            w.epoch = epoch_;
            DoGet(std::move(walk));
            return;
        }
        // A failure — or a miss on this replica, which may just have lost
        // the put that a later replica acked (degraded-mode write).
        // Either way, ask the next one.
        ++w.attempt;
        DoGet(std::move(walk));
        return;
    }
    if (w.attempt > 0) {
        ++stats_.degraded_reads;
        recovery_latencies_.Record(sim_.Now() - w.first_fail);
        Repair(w.key, res, w.order, w.attempt);
    }
    if (w.done) w.done(res);
}

void
ClusterRouter::Repair(uint64_t key, const kv::GetResult &good,
                      const kv::ReplicaOrder &order, uint32_t failed_count)
{
    for (uint32_t i = 0; i < failed_count; ++i) {
        ++stats_.re_replications;
        PutTo(
            order[i], key, good.value_size,
            [this](kv::OpStatus s) {
                if (s != kv::OpStatus::kOk) ++stats_.re_replication_failures;
            },
            good.payload, kv::OpContext{});
    }
}

void
ClusterRouter::BatchGetAt(uint32_t node, std::vector<uint64_t> keys,
                          const kv::OpContext &ctx,
                          StorageNode::BatchGetCallback done)
{
    SDF_CHECK(node < nodes_.size());
    node_gets_[node] += keys.size();
    nodes_[node]->BatchGet(std::move(keys), ctx, std::move(done),
                           breaker_);
}

void
ClusterRouter::Scan(uint64_t start_key, uint32_t limit, kv::OpContext ctx,
                    StorageNode::ScanDoneCallback done)
{
    ++scans_;
    const std::vector<uint32_t> members = ring_.node_ids();
    if (members.empty() || limit == 0) {
        kv::ScanResult r;
        if (members.empty()) {
            r.ok = false;
            r.status = kv::OpStatus::kError;
            ++scan_failures_;
        }
        sim_.Post([done = std::move(done), r]() mutable {
            done(std::move(r));
        });
        return;
    }
    const uint64_t start_epoch = epoch_;
    auto merged = std::make_shared<std::map<uint64_t, uint32_t>>();
    auto ok = std::make_shared<bool>(true);
    auto status = std::make_shared<kv::OpStatus>(kv::OpStatus::kOk);
    auto remaining = std::make_shared<size_t>(members.size());
    auto boxed = std::make_shared<StorageNode::ScanDoneCallback>(
        std::move(done));
    for (size_t i = 0; i < members.size(); ++i) {
        const uint32_t node = members[i];
        kv::OpContext member_ctx = ctx;
        // Single span writer: the critical path rides the first member
        // RPC; the rest keep the trace id only.
        if (i != 0) member_ctx.path = nullptr;
        nodes_[node]->Scan(
            start_key, limit,
            [this, node](uint64_t key) {
                return ring_.PrimaryOf(key) == node;
            },
            member_ctx,
            [this, merged, ok, status, remaining, boxed, start_epoch,
             limit](kv::ScanResult r) {
                if (!r.ok) {
                    *ok = false;
                    *status = kv::WorseStatus(*status, r.status);
                } else {
                    for (const kv::ScanEntry &e : r.entries)
                        (*merged)[e.key] = e.value_size;
                }
                if (--*remaining > 0) return;
                kv::ScanResult out;
                // Placement moved under the cursor: the per-node
                // ownership predicates no longer tile the key space, so
                // the union may have holes — fail typed, caller retries.
                if (epoch_ != start_epoch) {
                    *ok = false;
                    *status = kv::WorseStatus(*status,
                                              kv::OpStatus::kError);
                }
                out.ok = *ok;
                out.status = *status;
                if (*ok) {
                    for (const auto &[key, value_size] : *merged) {
                        if (out.entries.size() >= limit) break;
                        out.entries.push_back(
                            kv::ScanEntry{key, value_size});
                        out.scanned_bytes += value_size;
                    }
                    scan_keys_ += out.entries.size();
                } else {
                    ++scan_failures_;
                }
                (*boxed)(std::move(out));
            });
    }
}

void
ClusterRouter::MarkNodeDown(uint32_t id)
{
    SDF_CHECK_MSG(ring_.Contains(id), "node not in membership");
    ring_.RemoveNode(id);
    ++epoch_;
}

void
ClusterRouter::MarkNodeUp(uint32_t id)
{
    SDF_CHECK_MSG(!ring_.Contains(id), "node already in membership");
    ring_.AddNode(id);
    ++epoch_;
}

ClusterRouter::~ClusterRouter()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

workload::KvService
ClusterRouter::Service()
{
    workload::KvService svc;
    svc.put = [this](uint64_t key, uint32_t value_size,
                     kv::PutStatusCallback done) {
        PutTyped(key, value_size, std::move(done));
    };
    svc.get = [this](uint64_t key, kv::GetCallback done) {
        Get(key, std::move(done));
    };
    svc.scan = [this](uint64_t start_key, uint32_t limit,
                      std::function<void(const kv::ScanResult &)> done) {
        Scan(start_key, limit, kv::OpContext{},
             [done = std::move(done)](kv::ScanResult r) { done(r); });
    };
    return svc;
}

Cluster::Cluster(sim::Simulator &sim, const ClusterConfig &cfg) : sim_(sim)
{
    SDF_CHECK(cfg.nodes > 0);
    nodes_.reserve(cfg.nodes);
    for (uint32_t i = 0; i < cfg.nodes; ++i) {
        nodes_.push_back(std::make_unique<StorageNode>(sim, i, cfg.node));
    }
    std::vector<StorageNode *> ptrs;
    ptrs.reserve(nodes_.size());
    for (auto &n : nodes_) ptrs.push_back(n.get());
    router_ = std::make_unique<ClusterRouter>(sim, ptrs, cfg.replication,
                                              cfg.vnodes_per_node,
                                              cfg.breaker);
    RebalanceConfig rc;
    rc.max_inflight = cfg.rebalance_max_inflight;
    rebalancer_ = std::make_unique<Rebalancer>(sim, ptrs, *router_, rc);
    anti_entropy_ = std::make_unique<AntiEntropy>(*rebalancer_);
}

Cluster::~Cluster() = default;

void
Cluster::StopNode(uint32_t id)
{
    SDF_CHECK(id < nodes_.size());
    router_->MarkNodeDown(id);
    nodes_[id]->Stop();
}

void
Cluster::RestartNode(uint32_t id, sim::Callback done)
{
    SDF_CHECK(id < nodes_.size());
    nodes_[id]->Restart([this, id, done = std::move(done)]() mutable {
        router_->MarkNodeUp(id);
        rebalancer_->RunPass(std::move(done));
    });
}

void
Cluster::FlushAll()
{
    for (auto &n : nodes_) n->FlushAll();
}

std::vector<uint64_t>
Cluster::Preload(uint32_t count, uint32_t value_bytes)
{
    std::vector<bool> acked(count, false);
    for (uint32_t k = 0; k < count; ++k) {
        router_->PutTyped(k + 1, value_bytes, [&acked, k](kv::OpStatus s) {
            acked[k] = s == kv::OpStatus::kOk;
        });
    }
    sim_.Run();
    FlushAll();
    sim_.Run();
    std::vector<uint64_t> keys;
    for (uint32_t k = 0; k < count; ++k) {
        if (acked[k]) keys.push_back(k + 1);
    }
    return keys;
}

AuditResult
Cluster::AuditAcked(const std::vector<uint64_t> &keys)
{
    AuditResult out;
    size_t next = 0;
    std::function<void()> step = [&]() {
        if (next >= keys.size()) return;
        const uint64_t key = keys[next++];
        router_->Get(key, [&, key](const kv::GetResult &res) {
            ++out.audited;
            if (!res.ok || !res.found) {
                ++out.lost;
                if (out.first_lost.size() < 10) out.first_lost.push_back(key);
            }
            step();
        });
    };
    for (uint32_t s = 0; s < 8; ++s) step();
    sim_.Run();
    return out;
}

std::vector<core::SdfDevice *>
Cluster::SdfDevices()
{
    std::vector<core::SdfDevice *> out;
    for (auto &n : nodes_) {
        if (n->sdf_device() != nullptr) out.push_back(n->sdf_device());
    }
    return out;
}

}  // namespace sdf::cluster
