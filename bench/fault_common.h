/**
 * @file
 * Shared fault-campaign runner used by bench/fault_campaign and the
 * `sdfsim --workload=faults` subcommand.
 *
 * A campaign assembles R independent replica stacks (SdfDevice + block
 * layer + CCDB store each — separate failure domains, as the paper's
 * no-drive-internal-redundancy design assumes), loads a key population,
 * then replays a deterministic FaultPlan against the hardware while
 * clients read over a timeout-and-retry network path. Afterwards every
 * acknowledged key is audited through the replicated read path.
 *
 * Reported metrics: data loss (keys unreadable from every replica),
 * availability (fraction of in-window requests answered successfully —
 * every request completes, bounded by timeout x retries), and recovery
 * latency (read-retry ladder recoveries on the device, replica failovers
 * in the store). A stats fingerprint makes determinism checkable: equal
 * seeds must produce equal fingerprints.
 */
#ifndef SDF_BENCH_FAULT_COMMON_H
#define SDF_BENCH_FAULT_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "kv/replicated_store.h"
#include "kv/store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/units.h"

namespace sdf::bench {

/**
 * Network spec tuned for fault campaigns: a tight per-attempt timeout so
 * requests stuck behind a multi-millisecond channel stall abandon the
 * attempt and retry instead of waiting it out.
 */
inline net::NetworkSpec
CampaignNetSpec()
{
    net::NetworkSpec spec;
    spec.rpc_timeout = util::MsToNs(5);
    spec.rpc_max_retries = 4;
    spec.rpc_backoff_base = util::MsToNs(1);
    return spec;
}

/** Campaign knobs. */
struct FaultCampaignConfig
{
    uint32_t replicas = 3;
    uint32_t slices_per_replica = 4;
    double capacity_scale = 0.02;
    uint32_t keys = 800;
    uint32_t value_bytes = 64 * util::kKiB;
    uint32_t reads = 1500;  ///< Network reads issued during the fault window.
    uint32_t writes = 200;  ///< Network writes during the window (redirects).
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
    net::NetworkSpec net = CampaignNetSpec();
    /** Optional observability hub, installed on the campaign's simulator
     *  before the replica stacks are built (see obs/hub.h). */
    obs::Hub *hub = nullptr;
};

/** Campaign outcome. */
struct FaultCampaignResult
{
    fault::FaultInjectorStats faults;
    uint64_t keys_stored = 0;
    uint64_t keys_lost = 0;  ///< Unreadable from every replica post-run.
    uint64_t requests_issued = 0;
    uint64_t requests_completed = 0;  ///< Every request must complete.
    uint64_t requests_ok = 0;
    double availability = 1.0;  ///< requests_ok / requests_issued.
    core::SdfStats device;      ///< Summed over replicas.
    kv::ReplicatedKvStats kv;
    net::RpcStats rpc;
    uint64_t ladder_recoveries = 0;   ///< Pages saved by read retries.
    double ladder_recovery_mean_ms = 0;
    uint64_t failovers = 0;           ///< Reads served by a backup replica.
    double failover_p99_ms = 0;
    /** Equal seeds must yield equal fingerprints (determinism check). */
    uint64_t fingerprint = 0;
    /** Non-empty when the supplied plan failed to parse; the campaign did
     *  not run and none of the counters above are meaningful. */
    std::string plan_error;
};

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
    // Long enough to outlast CampaignNetSpec's 5 ms RPC timeout: stalled
    // requests must exercise the client's timeout-and-retry path.
    spec.stall_max = util::MsToNs(8);
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
    sim::Simulator sim;
    if (cfg.hub != nullptr) sim.set_hub(cfg.hub);

    // --- replica stacks: independent devices = independent failure domains.
    // Wiring is the shared testbed builder's; only the error-model tuning
    // is campaign-specific.
    std::vector<testbed::KvStack> stacks;
    std::vector<kv::Store *> stores;
    std::vector<core::SdfDevice *> devices;
    for (uint32_t r = 0; r < cfg.replicas; ++r) {
        testbed::KvStackConfig kc;
        kc.stack.backend = testbed::Backend::kBaiduSdf;
        kc.stack.capacity_scale = cfg.capacity_scale;
        kc.stack.with_io_stack = false;
        kc.stack.tune_sdf = [&cfg, r](core::SdfConfig &dc) {
            dc.flash.errors.enabled = cfg.errors_enabled;
            dc.flash.errors.base_rber = cfg.base_rber;
            dc.flash.errors.wear_rber_factor = cfg.wear_rber_factor;
            dc.flash.errors.endurance_cycles = cfg.endurance_cycles;
            dc.flash.ecc_correctable_bits = cfg.ecc_bits;
            dc.flash.retry_extra_correctable_bits = cfg.retry_extra_bits;
            dc.flash.seed = cfg.seed + 0x9e3779b9ULL * (r + 1);
            dc.read_retry_levels = cfg.read_retry_levels;
        };
        kc.store.slice_count = cfg.slices_per_replica;
        stacks.push_back(testbed::BuildKvStack(sim, kc));
        stores.push_back(stacks.back().store.get());
        devices.push_back(stacks.back().storage.sdf.get());
    }
    kv::ReplicatedKv replicated(sim, stores);
    net::Network net(sim, cfg.net, /*clients=*/1);

    FaultCampaignResult result;

    // --- load phase: populate every replica, remember acknowledged keys.
    std::vector<uint64_t> acked;
    acked.reserve(cfg.keys);
    for (uint64_t k = 0; k < cfg.keys; ++k) {
        replicated.Put(k, cfg.value_bytes, [k, &acked](bool ok) {
            if (ok) acked.push_back(k);
        });
    }
    sim.Run();
    // Force memtables onto flash so the fault window reads real media.
    for (auto &s : stacks) {
        for (uint32_t i = 0; i < s.store->slice_count(); ++i)
            s.store->slice(i).Flush();
    }
    sim.Run();

    // --- fault window: replay the plan while clients read with retry.
    const util::TimeNs horizon = util::SecToNs(cfg.horizon_sec);
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
    const util::TimeNs t0 = sim.Now();
    fault::FaultInjector injector(
        sim, devices,
        fault::FaultPlan([&] {
            // Shift the plan into the current window.
            std::vector<fault::FaultEvent> ev = plan.events();
            for (auto &e : ev) e.when += t0;
            return ev;
        }()));

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
            net.RpcWithRetry(
                0, 256,
                [&, key](net::Network::TypedReply reply) {
                    replicated.Get(key,
                                   [reply = std::move(reply)](
                                       const kv::GetResult &res) {
                                       reply(res.ok && res.found
                                                 ? res.value_size
                                                 : 16);
                                   });
                },
                [&](bool ok) {
                    ++result.requests_completed;
                    if (ok) ++result.requests_ok;
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
        const uint64_t key = cfg.keys + i;
        sim.ScheduleAt(at, [&, key]() {
            ++result.requests_issued;
            net.RpcWithRetry(
                0, cfg.value_bytes,
                [&, key](net::Network::TypedReply reply) {
                    replicated.Put(key, cfg.value_bytes,
                                   [&acked, key, reply = std::move(reply)](
                                       bool ok) {
                                       if (ok) acked.push_back(key);
                                       reply(16);
                                   });
                },
                [&](bool ok) {
                    ++result.requests_completed;
                    if (ok) ++result.requests_ok;
                });
        });
    }
    sim.RunUntil(t0 + horizon);
    sim.Run();  // Drain in-flight requests, retries, and repairs.

    // --- audit phase: every acknowledged key must be readable somewhere.
    // An RPC-retried Put can ack twice; dedupe so each key is audited once.
    std::sort(acked.begin(), acked.end());
    acked.erase(std::unique(acked.begin(), acked.end()), acked.end());
    result.keys_stored = acked.size();
    for (uint64_t key : acked) {
        replicated.Get(key, [&result](const kv::GetResult &res) {
            if (!(res.ok && res.found)) ++result.keys_lost;
        });
    }
    sim.Run();

    // --- aggregate metrics.
    result.faults = injector.stats();
    for (auto &s : stacks) {
        const core::SdfStats &d = s.storage.sdf->stats();
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
        result.ladder_recoveries += s.storage.sdf->recovery_latencies().count();
        result.ladder_recovery_mean_ms +=
            s.storage.sdf->recovery_latencies().count() > 0
                ? s.storage.sdf->recovery_latencies().MeanMs()
                : 0;
    }
    if (cfg.replicas > 0) {
        result.ladder_recovery_mean_ms /= cfg.replicas;
    }
    result.kv = replicated.stats();
    result.rpc = net.rpc_stats();
    result.failovers = replicated.recovery_latencies().count();
    result.failover_p99_ms = result.failovers > 0
                                 ? replicated.recovery_latencies()
                                       .PercentileMs(99)
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

/** Print a campaign result in the standard bench table style. */
inline void
PrintFaultCampaignResult(const FaultCampaignConfig &cfg,
                         const FaultCampaignResult &r)
{
    std::printf("replicas %u, %llu keys stored, faults applied: %llu "
                "(%llu stalls, %llu deaths, %llu corruptions, %llu crc "
                "windows, %llu rber)\n",
                cfg.replicas,
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
}

}  // namespace sdf::bench

#endif  // SDF_BENCH_FAULT_COMMON_H
