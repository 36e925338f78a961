/**
 * @file
 * A compressed production day on one SDF storage node.
 *
 * Runs the YCSB engine's diurnal profile — a quiet night, a morning
 * ramp, peak noon serving, then an evening write-heavy ingest — against
 * a preloaded CCDB node and prints per-phase throughput and tail
 * latency, the LSM activity, and the device's wear report at the end of
 * the "day". The node is assembled by the shared testbed builder.
 *
 * Build & run:  ./build/examples/production_day
 * Optional:     --stats-json=out.json --trace=out.trace.json
 */
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs_cli.h"
#include "testbed/testbed.h"
#include "util/table_printer.h"
#include "workload/ycsb.h"

int
main(int argc, char **argv)
{
    using namespace sdf;

    obs::ObsCli &obs = obs::GlobalObs();
    obs.ParseAndStrip(argc, argv);

    const uint32_t slice_count = 4;
    kv::SliceConfig scfg;
    scfg.compaction_trigger = 4;
    testbed::KvTestbed bed(testbed::Backend::kBaiduSdf, slice_count,
                           slice_count, 0.05, scfg);
    core::SdfDevice &device = *bed.sdf_device();
    kv::Store &store = bed.store();

    // Yesterday's data: 64 KB pages written through the store (which
    // routes each key to its slice) and flushed to flash.
    const uint32_t value_bytes = 64 * util::kKiB;
    std::vector<uint64_t> keys;
    uint64_t acked = 0;
    for (uint64_t key = 1; key <= 4096; ++key) {
        keys.push_back(key);
        store.Put(key, value_bytes, [&acked](bool ok) { acked += ok; });
    }
    bed.sim().Run();
    for (uint32_t s = 0; s < store.slice_count(); ++s) store.slice(s).Flush();
    bed.sim().Run();
    std::printf("Node up: %u slices, %llu/%zu keys preloaded, %s user "
                "capacity\n\n",
                slice_count, static_cast<unsigned long long>(acked),
                keys.size(), util::FormatBytes(device.user_capacity()).c_str());

    workload::YcsbConfig base;
    base.arrival_rate = 900;
    base.duration = util::SecToNs(16);
    base.seed = 2026;
    base.value_bytes = value_bytes;
    base.slo = util::MsToNs(50);
    const workload::YcsbConfig cfg = workload::YcsbProfile("diurnal", base);
    const workload::YcsbResult r =
        workload::RunYcsb(bed.sim(), workload::ServiceFor(store), keys, cfg);

    util::TablePrinter table("A compressed production day");
    table.SetHeader({"Phase", "issued", "reads", "writes", "miss",
                     "p50 (ms)", "p99 (ms)", "SLO viol"});
    for (const workload::YcsbPhaseResult &p : r.phases) {
        table.AddRow({p.name, std::to_string(p.issued),
                      std::to_string(p.ok_reads),
                      std::to_string(p.ok_updates + p.ok_inserts),
                      std::to_string(p.misses),
                      util::TablePrinter::Num(p.p50_ms, 1),
                      util::TablePrinter::Num(p.p99_ms, 1),
                      std::to_string(p.slo_violations)});
        obs.AddDerived(p.name + ".issued", static_cast<double>(p.issued));
        obs.AddDerived(p.name + ".p99_ms", p.p99_ms);
    }
    table.Print();
    const double read_mbps = util::BandwidthMBps(r.read_bytes, cfg.duration);
    const double write_mbps =
        util::BandwidthMBps(r.write_bytes, cfg.duration);
    std::printf("Day: read %.1f MB/s (p99 %.1f ms), write %.1f MB/s "
                "(p99 %.1f ms), %llu failed ops\n",
                read_mbps, r.read_p99_ms, write_mbps, r.write_p99_ms,
                static_cast<unsigned long long>(
                    r.errors + r.shed_overloaded + r.shed_deadline));
    obs.AddDerived("read_mbps", read_mbps);
    obs.AddDerived("write_mbps", write_mbps);

    kv::SliceStats totals;
    for (uint32_t s = 0; s < store.slice_count(); ++s) {
        totals.flushes += store.slice(s).stats().flushes;
        totals.compactions += store.slice(s).stats().compactions;
        totals.put_stalls += store.slice(s).stats().put_stalls;
    }
    std::printf("LSM: %llu flushes, %llu compactions, %llu put stalls\n",
                static_cast<unsigned long long>(totals.flushes),
                static_cast<unsigned long long>(totals.compactions),
                static_cast<unsigned long long>(totals.put_stalls));

    const auto wear = device.GetWearReport();
    std::printf("Wear after the day: erase counts %u..%u (mean %.2f), "
                "%.4f %% of rated life used\n",
                wear.min_erase_count, wear.max_erase_count,
                wear.mean_erase_count, 100.0 * wear.life_used);
    obs.AddMeta("example", "production_day");
    if (const int rc = obs.Export(); rc != 0) return rc;
    return acked == keys.size() && r.completed == r.issued ? 0 : 1;
}
