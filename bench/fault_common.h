/**
 * @file
 * Shared fault-campaign runner used by bench/fault_campaign and the
 * `sdfsim --workload=faults` subcommand.
 *
 * A campaign builds a cluster::Cluster of R storage nodes with R-way
 * replication, so every node holds every key and each node's SdfDevice
 * is an independent failure domain, as the paper's
 * no-drive-internal-redundancy design assumes. It preloads a key
 * population, then replays a deterministic FaultPlan against the nodes'
 * devices while clients read and write through the router, whose
 * per-node RPCs time out and retry. Afterwards every acknowledged key is
 * audited through the router's replicated read path.
 *
 * Reported metrics: data loss (acked keys unreadable from every replica),
 * availability (fraction of in-window requests answered successfully —
 * every request completes, bounded by timeout x retries per replica), and
 * recovery latency (read-retry ladder recoveries on the device, replica
 * failovers in the router). A stats fingerprint makes determinism
 * checkable: equal seeds must produce equal fingerprints.
 */
#ifndef SDF_BENCH_FAULT_COMMON_H
#define SDF_BENCH_FAULT_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fault/fault.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/units.h"

namespace sdf::bench {

/**
 * Per-node RPC spec for fault campaigns: the attempt timeout is short
 * enough that requests stuck behind a long channel stall abandon the
 * attempt and retry, yet long enough for the flood-style preload (every
 * put issued at once, one RPC per replica). At the default size (800
 * keys, 3 replicas) a timeout of 10 ms or less times out every preload
 * put and nothing acks.
 */
inline net::NetworkSpec
CampaignNetSpec()
{
    net::NetworkSpec spec;
    spec.rpc_timeout = util::MsToNs(15);
    spec.rpc_max_retries = 4;
    spec.rpc_backoff_base = util::MsToNs(1);
    return spec;
}

/** Campaign knobs. */
struct FaultCampaignConfig
{
    uint32_t replicas = 3;  ///< Nodes, each holding every key.
    uint32_t slices_per_replica = 4;
    double capacity_scale = 0.02;
    uint32_t keys = 800;
    uint32_t value_bytes = 64 * util::kKiB;
    uint32_t reads = 1500;  ///< Router reads issued during the fault window.
    uint32_t writes = 200;  ///< Router writes during the window (redirects).
    double horizon_sec = 0.4;
    uint64_t seed = 42;
    uint32_t fault_count = 120;
    uint32_t read_retry_levels = 4;
    /** Optional plan text (FaultPlan format); empty = random from seed. */
    std::string plan_text;
    /**
     * Device error model (faults ride on top of it). The elevated base
     * RBER puts ~1.3 expected bit errors in an 8 KiB page — harmless
     * against a 40-bit BCH budget, but an injected RBER elevation of
     * 30-100x pushes pages into read-retry or terminal-retirement range.
     */
    bool errors_enabled = true;
    double base_rber = 2e-5;
    double wear_rber_factor = 50.0;
    uint32_t endurance_cycles = 3000;
    uint32_t ecc_bits = 40;
    uint32_t retry_extra_bits = 10;
    /** Every node's network endpoint (the router's RPCs into it). */
    net::NetworkSpec net = CampaignNetSpec();
    /** Optional observability hub, installed on the campaign's simulator
     *  before the cluster is built (see obs/hub.h). */
    obs::Hub *hub = nullptr;
};

/** Campaign outcome. */
struct FaultCampaignResult
{
    fault::FaultInjectorStats faults;
    uint64_t keys_preloaded = 0;  ///< Preload puts that acked.
    uint64_t keys_stored = 0;     ///< Acked keys audited after the run.
    uint64_t keys_lost = 0;  ///< Unreadable from every replica post-run.
    uint64_t requests_issued = 0;
    uint64_t requests_completed = 0;  ///< Every request must complete.
    uint64_t requests_ok = 0;
    double availability = 1.0;  ///< requests_ok / requests_issued.
    core::SdfStats device;      ///< Summed over nodes.
    cluster::ReplicationStats kv;
    net::RpcStats rpc;  ///< Summed over the nodes' endpoints.
    uint64_t ladder_recoveries = 0;   ///< Pages saved by read retries.
    double ladder_recovery_mean_ms = 0;  ///< Over every rescued page.
    uint64_t failovers = 0;           ///< Reads served by a backup replica.
    double failover_p99_ms = 0;
    /** Equal seeds must yield equal fingerprints (determinism check). */
    uint64_t fingerprint = 0;
    /** Non-empty when the supplied plan failed to parse; the campaign did
     *  not run and none of the counters above are meaningful. */
    std::string plan_error;
};

/**
 * Read the FaultPlan file at @p path into @p cfg's plan text. On failure
 * prints one stderr line and returns false; the front ends then exit 2,
 * as for any bad input.
 */
inline bool
LoadCampaignPlan(const std::string &path, FaultCampaignConfig *cfg)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open fault plan %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    cfg->plan_text = text.str();
    return true;
}

/** The plan spec a campaign uses when no plan text is supplied. Exposed so
 *  `--print-plan` style tooling can emit exactly the plan a run would use. */
inline fault::FaultPlanSpec
CampaignFaultSpec(const FaultCampaignConfig &cfg)
{
    fault::FaultPlanSpec spec;
    spec.fault_count = cfg.fault_count;
    spec.horizon = util::SecToNs(cfg.horizon_sec);
    spec.devices = cfg.replicas;
    const nand::Geometry geo =
        core::BaiduSdfConfig(cfg.capacity_scale).flash.geometry;
    spec.channels = geo.channels;
    spec.planes = geo.PlanesPerChannel();
    // Target the low block indices: the allocator hands out blocks in
    // order, so that's where a lightly filled device keeps its data. A
    // uniformly random block would nearly always hit unwritten flash.
    spec.blocks_per_plane = std::min(geo.blocks_per_plane, 8u);
    spec.pages_per_block = geo.pages_per_block;
    spec.max_deaths = cfg.replicas;  // At most ~one dead channel per replica.
    // Long enough to outlast CampaignNetSpec's 15 ms RPC timeout: stalled
    // requests must exercise the router's timeout-and-retry path.
    spec.stall_max = util::MsToNs(30);
    return spec;
}

/** The seed the campaign derives for plan synthesis (distinct stream from
 *  device RNGs and the read schedule). */
inline uint64_t
CampaignPlanSeed(const FaultCampaignConfig &cfg)
{
    return cfg.seed ^ 0xfa011700ULL;
}

inline FaultCampaignResult
RunFaultCampaign(const FaultCampaignConfig &cfg)
{
    FaultCampaignResult result;
    fault::FaultPlan plan;
    if (!cfg.plan_text.empty()) {
        std::string error;
        if (!fault::FaultPlan::Parse(cfg.plan_text, &plan, &error)) {
            std::fprintf(stderr, "fault plan: %s\n", error.c_str());
            result.plan_error = error;
            return result;
        }
    } else {
        plan = fault::FaultPlan::Random(CampaignFaultSpec(cfg),
                                        CampaignPlanSeed(cfg));
    }

    sim::Simulator sim;
    if (cfg.hub != nullptr) sim.set_hub(cfg.hub);

    // --- cluster: R nodes, R-way replication, so every node holds every
    // key. Only the error-model tuning is campaign-specific; the nodes are
    // built in id order, so node r's device gets the r-th seed.
    cluster::ClusterConfig cc;
    cc.nodes = cfg.replicas;
    cc.replication = cfg.replicas;
    cc.node.net = cfg.net;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.capacity_scale = cfg.capacity_scale;
    cc.node.kv.stack.with_io_stack = false;
    cc.node.kv.store.slice_count = cfg.slices_per_replica;
    uint32_t next_node = 0;
    cc.node.kv.stack.tune_sdf = [&cfg, &next_node](core::SdfConfig &dc) {
        const uint32_t r = next_node++;
        dc.flash.errors.enabled = cfg.errors_enabled;
        dc.flash.errors.base_rber = cfg.base_rber;
        dc.flash.errors.wear_rber_factor = cfg.wear_rber_factor;
        dc.flash.errors.endurance_cycles = cfg.endurance_cycles;
        dc.flash.ecc_correctable_bits = cfg.ecc_bits;
        dc.flash.retry_extra_correctable_bits = cfg.retry_extra_bits;
        dc.flash.seed = cfg.seed + 0x9e3779b9ULL * (r + 1);
        dc.read_retry_levels = cfg.read_retry_levels;
    };
    cluster::Cluster cl(sim, cc);
    cluster::ClusterRouter &router = cl.router();
    const std::vector<core::SdfDevice *> devices = cl.SdfDevices();

    // --- load phase: keys 1..keys on every node, flushed to flash so the
    // fault window reads real media.
    std::vector<uint64_t> acked = cl.Preload(cfg.keys, cfg.value_bytes);
    result.keys_preloaded = acked.size();

    // --- fault window: replay the plan while clients read and write.
    const util::TimeNs horizon = util::SecToNs(cfg.horizon_sec);
    const util::TimeNs t0 = sim.Now();
    std::vector<fault::FaultEvent> events = plan.events();
    for (auto &e : events) e.when += t0;  // Shift into the window.
    fault::FaultInjector injector(sim, devices,
                                  fault::FaultPlan(std::move(events)));

    auto complete = [&result](bool ok) {
        ++result.requests_completed;
        if (ok) ++result.requests_ok;
    };
    util::Rng read_rng(cfg.seed ^ 0x5ca1ab1eULL);
    for (uint32_t i = 0; i < cfg.reads; ++i) {
        const util::TimeNs at =
            t0 + static_cast<util::TimeNs>(
                     (static_cast<double>(i) / cfg.reads) *
                     static_cast<double>(horizon));
        const uint64_t key =
            acked.empty() ? 0 : acked[read_rng.NextBelow(acked.size())];
        sim.ScheduleAt(at, [&, key]() {
            ++result.requests_issued;
            router.Get(key, [&](const kv::GetResult &res) {
                complete(res.ok && res.found);
            });
        });
    }
    // Fresh writes land while channels are stalling and dying, exercising
    // dead-channel avoidance and write redirection in the block layer.
    // Acknowledged keys join the audit set: an acked write must survive.
    for (uint32_t i = 0; i < cfg.writes; ++i) {
        const util::TimeNs at =
            t0 + static_cast<util::TimeNs>(
                     ((static_cast<double>(i) + 0.5) / cfg.writes) *
                     static_cast<double>(horizon));
        const uint64_t key = uint64_t{cfg.keys} + 1 + i;
        sim.ScheduleAt(at, [&, key]() {
            ++result.requests_issued;
            router.PutTyped(key, cfg.value_bytes, [&, key](kv::OpStatus s) {
                if (s == kv::OpStatus::kOk) acked.push_back(key);
                complete(s == kv::OpStatus::kOk);
            });
        });
    }
    sim.RunUntil(t0 + horizon);
    sim.Run();  // Drain in-flight requests, retries, and repairs.

    // --- audit phase: every acknowledged key must be readable somewhere.
    std::sort(acked.begin(), acked.end());
    result.keys_stored = acked.size();
    result.keys_lost = cl.AuditAcked(acked).lost;

    // --- aggregate metrics.
    result.faults = injector.stats();
    for (core::SdfDevice *dev : devices) {
        const core::SdfStats &d = dev->stats();
        result.device.unit_writes += d.unit_writes;
        result.device.unit_erases += d.unit_erases;
        result.device.page_reads += d.page_reads;
        result.device.read_failures += d.read_failures;
        result.device.read_retries += d.read_retries;
        result.device.retry_recoveries += d.retry_recoveries;
        result.device.read_retirements += d.read_retirements;
        result.device.blocks_retired += d.blocks_retired;
        result.device.units_lost += d.units_lost;
        result.device.contract_violations += d.contract_violations;
        const uint64_t recoveries = dev->recovery_latencies().count();
        result.ladder_recoveries += recoveries;
        if (recoveries > 0) {
            result.ladder_recovery_mean_ms +=
                dev->recovery_latencies().MeanMs() * recoveries;
        }
    }
    if (result.ladder_recoveries > 0) {
        result.ladder_recovery_mean_ms /= result.ladder_recoveries;
    }
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        const net::RpcStats &s = cl.node(n).net().rpc_stats();
        result.rpc.timeouts += s.timeouts;
        result.rpc.retries += s.retries;
        result.rpc.failures += s.failures;
    }
    result.kv = router.stats();
    result.failovers = router.recovery_latencies().count();
    result.failover_p99_ms =
        result.failovers > 0
            ? router.recovery_latencies().PercentileMs(99)
            : 0;
    result.availability =
        result.requests_issued > 0
            ? static_cast<double>(result.requests_ok) /
                  static_cast<double>(result.requests_issued)
            : 1.0;

    // --- determinism fingerprint over everything observable.
    char digest[512];
    std::snprintf(
        digest, sizeof digest,
        "f%llu s%llu l%llu i%llu c%llu o%llu pr%llu rf%llu rr%llu rc%llu "
        "rt%llu ul%llu dg%llu fr%llu rp%llu to%llu nr%llu",
        static_cast<unsigned long long>(result.faults.total()),
        static_cast<unsigned long long>(result.keys_stored),
        static_cast<unsigned long long>(result.keys_lost),
        static_cast<unsigned long long>(result.requests_issued),
        static_cast<unsigned long long>(result.requests_completed),
        static_cast<unsigned long long>(result.requests_ok),
        static_cast<unsigned long long>(result.device.page_reads),
        static_cast<unsigned long long>(result.device.read_failures),
        static_cast<unsigned long long>(result.device.read_retries),
        static_cast<unsigned long long>(result.device.retry_recoveries),
        static_cast<unsigned long long>(result.device.read_retirements),
        static_cast<unsigned long long>(result.device.units_lost),
        static_cast<unsigned long long>(result.kv.degraded_reads),
        static_cast<unsigned long long>(result.kv.failed_reads),
        static_cast<unsigned long long>(result.kv.re_replications),
        static_cast<unsigned long long>(result.rpc.timeouts),
        static_cast<unsigned long long>(result.rpc.retries));
    result.fingerprint = util::Fingerprint(digest, std::strlen(digest));
    return result;
}

/**
 * The campaign's verdict: every preload key acked, no acked key lost and
 * every in-window request completed. A short preload fails the campaign
 * rather than shrinking the audit.
 */
inline bool
CampaignPassed(const FaultCampaignConfig &cfg, const FaultCampaignResult &r)
{
    return r.keys_preloaded == cfg.keys && r.keys_lost == 0 &&
           r.requests_completed == r.requests_issued;
}

/** Print a campaign result and its verdict in the standard bench table
 *  style. */
inline void
PrintFaultCampaignResult(const FaultCampaignConfig &cfg,
                         const FaultCampaignResult &r)
{
    std::printf("replicas %u, %llu/%u preload keys acked, %llu keys "
                "stored, faults applied: %llu (%llu stalls, %llu deaths, "
                "%llu corruptions, %llu crc windows, %llu rber)\n",
                cfg.replicas,
                static_cast<unsigned long long>(r.keys_preloaded), cfg.keys,
                static_cast<unsigned long long>(r.keys_stored),
                static_cast<unsigned long long>(r.faults.total()),
                static_cast<unsigned long long>(r.faults.stalls),
                static_cast<unsigned long long>(r.faults.deaths),
                static_cast<unsigned long long>(r.faults.corruptions),
                static_cast<unsigned long long>(r.faults.crc_windows),
                static_cast<unsigned long long>(r.faults.rber_elevations));
    std::printf("data loss:     %llu / %llu keys\n",
                static_cast<unsigned long long>(r.keys_lost),
                static_cast<unsigned long long>(r.keys_stored));
    std::printf("availability:  %.4f (%llu/%llu requests ok, all %llu "
                "completed)\n",
                r.availability,
                static_cast<unsigned long long>(r.requests_ok),
                static_cast<unsigned long long>(r.requests_issued),
                static_cast<unsigned long long>(r.requests_completed));
    std::printf("device:        %llu page reads, %llu retries, %llu ladder "
                "recoveries (mean %.3f ms), %llu terminal failures, %llu "
                "blocks retired, %llu units lost\n",
                static_cast<unsigned long long>(r.device.page_reads),
                static_cast<unsigned long long>(r.device.read_retries),
                static_cast<unsigned long long>(r.ladder_recoveries),
                r.ladder_recovery_mean_ms,
                static_cast<unsigned long long>(r.device.read_failures),
                static_cast<unsigned long long>(r.device.blocks_retired),
                static_cast<unsigned long long>(r.device.units_lost));
    std::printf("store:         %llu degraded reads (failover p99 %.3f ms), "
                "%llu re-replications, %llu reads failed on all replicas\n",
                static_cast<unsigned long long>(r.kv.degraded_reads),
                r.failover_p99_ms,
                static_cast<unsigned long long>(r.kv.re_replications),
                static_cast<unsigned long long>(r.kv.failed_reads));
    std::printf("network:       %llu timeouts, %llu retries, %llu permanent "
                "failures\n",
                static_cast<unsigned long long>(r.rpc.timeouts),
                static_cast<unsigned long long>(r.rpc.retries),
                static_cast<unsigned long long>(r.rpc.failures));
    std::printf("fingerprint:   %016llx (same seed => same value)\n",
                static_cast<unsigned long long>(r.fingerprint));
    std::printf("verdict:       %s\n",
                CampaignPassed(cfg, r)
                    ? "PASS (no data loss, all requests completed)"
                    : "FAIL");
}

}  // namespace sdf::bench

#endif  // SDF_BENCH_FAULT_COMMON_H
