#include "cluster/breaker.h"

#include <algorithm>

#include "util/assert.h"

namespace sdf::cluster {

FailSlowBreaker::FailSlowBreaker(uint32_t nodes, const BreakerConfig &cfg)
    : cfg_(cfg), ewma_(nodes, 0.0), samples_(nodes, 0), open_(nodes, 0)
{
    SDF_CHECK(nodes > 0);
    SDF_CHECK(cfg_.trip_factor > cfg_.reset_factor);
    SDF_CHECK(cfg_.alpha > 0.0 && cfg_.alpha <= 1.0);
    peers_.reserve(nodes);
}

double
FailSlowBreaker::PeerMedian(uint32_t node)
{
    // Median over *other* nodes with enough history; a fleet-wide slowdown
    // (overload storm) raises the median and trips nobody — the breaker
    // targets divergence, not load. Runs on every RPC completion, so the
    // peer list reuses one scratch buffer instead of allocating.
    peers_.clear();
    for (uint32_t i = 0; i < ewma_.size(); ++i) {
        if (i != node && samples_[i] >= cfg_.min_samples) {
            peers_.push_back(ewma_[i]);
        }
    }
    if (peers_.empty()) return 0.0;
    const size_t mid = peers_.size() / 2;
    std::nth_element(peers_.begin(), peers_.begin() + mid, peers_.end());
    return peers_[mid];
}

void
FailSlowBreaker::Record(uint32_t node, util::TimeNs service_time)
{
    if (!cfg_.enabled) return;
    SDF_CHECK(node < ewma_.size());
    const auto x = static_cast<double>(service_time);
    ewma_[node] = samples_[node] == 0
                      ? x
                      : cfg_.alpha * x + (1.0 - cfg_.alpha) * ewma_[node];
    ++samples_[node];
    if (samples_[node] < cfg_.min_samples) return;

    const double median = PeerMedian(node);
    if (median <= 0.0) return;
    if (open_[node] == 0) {
        if (ewma_[node] > cfg_.trip_factor * median) {
            open_[node] = 1;
            ++open_count_;
            ++stats_.trips;
        }
    } else if (ewma_[node] < cfg_.reset_factor * median) {
        open_[node] = 0;
        --open_count_;
        ++stats_.resets;
    }
}

}  // namespace sdf::cluster
