/**
 * @file
 * Fail-slow detection for the cluster router.
 *
 * Fail-stop nodes are easy: they time out and the membership drops them.
 * The expensive failure mode in production is the node that keeps
 * answering — just 5-50x slower than its peers (degraded NIC, a dying
 * flash channel, a noisy neighbor stealing its CPU). Because replication
 * reads walk replicas in placement order, one such node poisons the tail
 * latency of every key it is primary for while every health check passes.
 *
 * The breaker watches the per-node service time the router observes
 * (request out -> typed completion back), smooths it with an EWMA, and
 * compares each node against the median of its peers. A node whose EWMA
 * exceeds trip_factor x the peer median is "open": placement is
 * untouched — the node keeps its keys and keeps receiving writes, so its
 * data stays fresh — but read ordering demotes it to the back of every
 * replica list until its EWMA falls back under reset_factor x median
 * (hysteresis so a node on the boundary does not flap).
 */
#ifndef SDF_CLUSTER_BREAKER_H
#define SDF_CLUSTER_BREAKER_H

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace sdf::cluster {

/** Fail-slow breaker tuning. Disabled by default: demoting a replica is
 *  a policy decision benches/tools opt into. */
struct BreakerConfig
{
    bool enabled = false;
    /** Samples a node needs before it can be judged (or judged against). */
    uint32_t min_samples = 32;
    /** Open when EWMA > trip_factor x peer median. */
    double trip_factor = 3.0;
    /** Close again when EWMA < reset_factor x peer median. */
    double reset_factor = 1.5;
    /** EWMA smoothing weight for each new sample. */
    double alpha = 0.05;
};

/** Per-node service-time EWMA + open/closed state. */
class FailSlowBreaker
{
  public:
    struct Stats
    {
        uint64_t trips = 0;     ///< Closed -> open transitions.
        uint64_t resets = 0;    ///< Open -> closed transitions.
        uint64_t reroutes = 0;  ///< Replica orders changed by demotion.
    };

    FailSlowBreaker(uint32_t nodes, const BreakerConfig &cfg);

    /** Feed one observed service time for @p node and re-judge it. */
    void Record(uint32_t node, util::TimeNs service_time);

    bool IsOpen(uint32_t node) const { return open_[node] != 0; }
    bool AnyOpen() const { return open_count_ > 0; }
    uint32_t open_count() const { return open_count_; }
    double ewma_ms(uint32_t node) const { return ewma_[node] / 1e6; }

    void CountReroute() { ++stats_.reroutes; }
    const Stats &stats() const { return stats_; }

  private:
    double PeerMedian(uint32_t node);

    BreakerConfig cfg_;
    std::vector<double> ewma_;        ///< Smoothed service time, ns.
    std::vector<uint64_t> samples_;
    std::vector<uint8_t> open_;
    std::vector<double> peers_;       ///< PeerMedian() scratch, reused.
    uint32_t open_count_ = 0;
    Stats stats_;
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_BREAKER_H
