#include "net/network.h"

#include <utility>

#include "obs/hub.h"
#include "util/assert.h"
#include "util/units.h"

namespace sdf::net {

namespace {

/** Response size for a transport-generated deadline nack. */
constexpr uint64_t kDropReplyBytes = 16;

}  // namespace

const char *
RpcCodeName(RpcCode code)
{
    switch (code) {
        case RpcCode::kOk: return "ok";
        case RpcCode::kOverloaded: return "overloaded";
        case RpcCode::kDeadlineExceeded: return "deadline_exceeded";
    }
    return "unknown";
}

Network::Network(sim::Simulator &sim, const NetworkSpec &spec,
                 uint32_t clients)
    : sim_(sim), spec_(spec), server_nic_(sim), server_cpu_(sim)
{
    SDF_CHECK(clients > 0);
    client_nics_.reserve(clients);
    workers_.reserve(clients);
    for (uint32_t i = 0; i < clients; ++i) {
        client_nics_.push_back(std::make_unique<sim::FifoResource>(sim));
        workers_.push_back(std::make_unique<sim::FifoResource>(sim));
    }

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("net");
        m.RegisterCounter(metric_prefix_ + ".messages", &messages_);
        m.RegisterCounter(metric_prefix_ + ".bytes_to_clients",
                          &bytes_to_clients_);
        m.RegisterCounter(metric_prefix_ + ".rpc_timeouts",
                          &rpc_stats_.timeouts);
        m.RegisterCounter(metric_prefix_ + ".rpc_retries",
                          &rpc_stats_.retries);
        m.RegisterCounter(metric_prefix_ + ".rpc_failures",
                          &rpc_stats_.failures);
        m.RegisterCounter(metric_prefix_ + ".rpc_late_responses",
                          &rpc_stats_.late_responses);
        m.RegisterCounter(metric_prefix_ + ".rpc_overload_replies",
                          &rpc_stats_.overload_replies);
        m.RegisterCounter(metric_prefix_ + ".rpc_deadline_drops",
                          &rpc_stats_.deadline_drops);
        m.RegisterGauge(metric_prefix_ + ".service_time_multiplier",
                        [this]() { return service_mult_; });
        m.RegisterCounter(metric_prefix_ + ".bulk_messages",
                          &bulk_messages_);
        m.RegisterCounter(metric_prefix_ + ".bulk_bytes", &bulk_bytes_);
        m.RegisterGauge(metric_prefix_ + ".server_cpu_utilization", [this]() {
            return server_cpu_.Utilization(sim_.Now());
        });
    }
}

Network::~Network()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

void
Network::ClientToServer(uint32_t client, uint64_t bytes,
                        sim::Callback at_server)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;
    const TimeNs wire =
        util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[client]->Submit(wire, nullptr);
    const TimeNs arrival = sim_.Now() + wire + spec_.one_way_delay;
    sim_.ScheduleAt(arrival, [this, at_server = std::move(at_server)]() mutable {
        server_cpu_.Submit(Scaled(spec_.server_per_message),
                           std::move(at_server));
    });
}

void
Network::Push(uint32_t client, uint64_t bytes, sim::Callback delivered)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;
    const auto worker_cost = Scaled(
        spec_.server_per_message +
        static_cast<TimeNs>(spec_.worker_per_byte_ns *
                            static_cast<double>(bytes)));
    workers_[client]->Submit(worker_cost, [this, client, bytes,
                                           delivered = std::move(
                                               delivered)]() mutable {
        bytes_to_clients_ += bytes;
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, spec_.server_nic_bytes_per_sec);
        const TimeNs srv_done = server_nic_.Submit(srv_wire, nullptr);
        const TimeNs cli_wire =
            util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
        client_nics_[client]->SubmitAfter(srv_done + spec_.one_way_delay,
                                          cli_wire, std::move(delivered));
    });
}

void
Network::Bulk(uint32_t client, uint64_t bytes, sim::Callback at_server,
              std::shared_ptr<obs::IoSpan> span)
{
    SDF_CHECK(client < client_nics_.size());
    ++bulk_messages_;
    bulk_bytes_ += bytes;
    const TimeNs cli_wire =
        util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[client]->Submit(cli_wire, nullptr);
    const TimeNs arrival = sim_.Now() + cli_wire + spec_.one_way_delay;
    if (span) span->Enter(obs::Stage::kAdmission, arrival);
    sim_.ScheduleAt(arrival, [this, bytes, at_server = std::move(at_server),
                              span = std::move(span)]() mutable {
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, spec_.server_nic_bytes_per_sec);
        server_nic_.Submit(srv_wire, [this, at_server = std::move(at_server),
                                      span = std::move(span)]() mutable {
            server_cpu_.Submit(
                Scaled(spec_.server_per_message),
                [at_server = std::move(at_server),
                 span = std::move(span), this]() mutable {
                    if (span)
                        span->Enter(obs::Stage::kServerHandle, sim_.Now());
                    at_server();
                });
        });
    });
}

void
Network::TypedReply::operator()(uint64_t bytes, RpcCode code) const
{
    SDF_CHECK_MSG(attempt_ != nullptr, "replying through an empty handle");
    attempt_->call->net->Respond(attempt_, bytes, code);
}

std::shared_ptr<Network::Call>
Network::NewCall(uint32_t client, uint64_t request_bytes, TimeNs deadline,
                 bool retry, Handler handler, Done done)
{
    SDF_CHECK(client < client_nics_.size());
    auto call = sim::MakePooledShared<Call>(call_pool_);
    call->net = this;
    call->handler = std::move(handler);
    call->done = std::move(done);
    call->deadline = deadline;
    call->request_bytes = request_bytes;
    call->client = client;
    call->retry = retry;
    return call;
}

void
Network::Rpc(uint32_t client, uint64_t request_bytes, Handler handler,
             sim::Func<void()> delivered, std::shared_ptr<obs::IoSpan> span)
{
    StartAttempt(NewCall(client, request_bytes, 0, /*retry=*/false,
                         std::move(handler),
                         [delivered = std::move(delivered)](RpcCode) {
                             if (delivered) delivered();
                         }),
                 0, std::move(span));
}

void
Network::RpcWithRetry(uint32_t client, uint64_t request_bytes,
                      Handler handler, sim::Func<void(bool ok)> done)
{
    StartAttempt(NewCall(client, request_bytes, 0, /*retry=*/true,
                         std::move(handler),
                         [done = std::move(done)](RpcCode code) {
                             if (done) done(code == RpcCode::kOk);
                         }),
                 0, nullptr);
}

void
Network::RpcTyped(uint32_t client, uint64_t request_bytes, TimeNs deadline,
                  Handler handler, Done done,
                  std::shared_ptr<obs::IoSpan> span)
{
    StartAttempt(NewCall(client, request_bytes, deadline, /*retry=*/true,
                         std::move(handler), std::move(done)),
                 0, std::move(span));
}

void
Network::StartAttempt(std::shared_ptr<Call> call, uint32_t index,
                      std::shared_ptr<obs::IoSpan> span)
{
    const TimeNs deadline = call->deadline;
    // A request already past its deadline never hits the wire.
    if (deadline != 0 && sim_.Now() >= deadline) {
        ++rpc_stats_.failures;
        sim_.Post([call = std::move(call)]() {
            if (call->done) call->done(RpcCode::kDeadlineExceeded);
        });
        return;
    }

    auto a = sim::MakePooledShared<Attempt>(attempt_pool_);
    a->call = std::move(call);
    a->span = std::move(span);
    a->index = index;
    const Call &c = *a->call;

    // Request: client NIC -> wire -> server NIC -> server CPU dispatch.
    ++messages_;
    const TimeNs req_wire = util::TransferTimeNs(
        c.request_bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[c.client]->Submit(req_wire, nullptr);
    const TimeNs at_server = sim_.Now() + req_wire + spec_.one_way_delay;
    // The arrival time is known now; the span clamps it monotonic.
    if (a->span) a->span->Enter(obs::Stage::kAdmission, at_server);
    sim_.ScheduleAt(at_server, [this, a]() mutable {
        server_cpu_.Submit(Scaled(spec_.server_per_message),
                           [this, a = std::move(a)]() mutable {
                               Serve(std::move(a));
                           });
    });
    if (!c.retry) return;

    // Per-attempt timer: the usual RPC timeout, clipped to the deadline.
    // Cancelled when the attempt settles, so only a real timeout fires.
    TimeNs wait = spec_.rpc_timeout;
    if (deadline != 0) {
        const TimeNs remaining = deadline - sim_.Now();
        if (wait == 0 || remaining < wait) wait = remaining;
    }
    if (wait == 0) return;
    Attempt *raw = a.get();
    raw->timer = sim_.Schedule(
        wait, [this, a = std::move(a)]() { TimedOut(a); });
}

void
Network::Serve(std::shared_ptr<Attempt> a)
{
    if (a->span) a->span->Enter(obs::Stage::kServerHandle, sim_.Now());
    const Call &c = *a->call;
    if (c.deadline != 0 && sim_.Now() > c.deadline) {
        // Expired in flight or in the server queue: nack without
        // touching the handler — the work would be wasted anyway.
        ++rpc_stats_.deadline_drops;
        Respond(a, kDropReplyBytes, RpcCode::kDeadlineExceeded);
        return;
    }
    c.handler(TypedReply(std::move(a)));
}

void
Network::Respond(const std::shared_ptr<Attempt> &a, uint64_t bytes,
                 RpcCode code)
{
    if (a->replied) return;  // Another copy of the handle already replied.
    a->replied = true;
    a->code = code;
    if (a->span) a->span->Enter(obs::Stage::kRpcWire, sim_.Now());
    // Response: payload handled on the connection's serving worker, then
    // both NICs.
    const uint32_t client = a->call->client;
    const auto payload_cpu =
        Scaled(spec_.server_per_message +
               static_cast<TimeNs>(spec_.worker_per_byte_ns *
                                   static_cast<double>(bytes)));
    workers_[client]->Submit(payload_cpu, [this, a, client, bytes]() mutable {
        bytes_to_clients_ += bytes;
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, spec_.server_nic_bytes_per_sec);
        const TimeNs srv_done = server_nic_.Submit(srv_wire, nullptr);
        const TimeNs cli_wire =
            util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
        client_nics_[client]->SubmitAfter(
            srv_done + spec_.one_way_delay, cli_wire,
            [this, a = std::move(a)]() { Deliver(a); });
    });
}

void
Network::Deliver(const std::shared_ptr<Attempt> &a)
{
    if (a->settled) {
        ++rpc_stats_.late_responses;
        return;
    }
    a->settled = true;
    if (a->timer != sim::kInvalidEvent) {
        sim_.Cancel(a->timer);
        a->timer = sim::kInvalidEvent;
    }
    if (a->code == RpcCode::kOverloaded) ++rpc_stats_.overload_replies;
    const Call &c = *a->call;
    if (c.done) c.done(a->code);
}

void
Network::TimedOut(const std::shared_ptr<Attempt> &a)
{
    a->timer = sim::kInvalidEvent;
    if (a->settled) return;
    a->settled = true;
    ++rpc_stats_.timeouts;
    const Call &c = *a->call;
    const TimeNs backoff = spec_.rpc_backoff_base << a->index;
    const bool budget_left = a->index < spec_.rpc_max_retries;
    const bool deadline_left =
        c.deadline == 0 || sim_.Now() + backoff < c.deadline;
    if (!budget_left || !deadline_left) {
        ++rpc_stats_.failures;
        if (c.done) c.done(RpcCode::kDeadlineExceeded);
        return;
    }
    ++rpc_stats_.retries;
    // Retries carry no span: the first attempt owns the timeline (its
    // server side may still be running), and a settle's Finish() makes
    // any late milestone a no-op.
    sim_.Schedule(backoff, [this, call = a->call, next = a->index + 1]() {
        StartAttempt(call, next, nullptr);
    });
}

}  // namespace sdf::net
