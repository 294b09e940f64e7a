// First-fit-decreasing partitioner with edge affinity. Serves as (a) the comparison baseline
// for multilevel quality, (b) the guaranteed-feasible fallback, and (c) the initial-partition
// building block reused by the multilevel code.
#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "hypergraph/metrics.h"
#include "hypergraph/partitioner.h"

namespace dcp {

Partition GreedyAffinityPartition(const Hypergraph& hg, const PartitionConfig& config,
                                  Rng& rng) {
  const int k = config.k;
  const VertexWeight total = hg.TotalWeight();
  const std::array<double, 2> target = {total[0] / k, total[1] / k};

  // Process heaviest-first (by max normalized weight) for bin-packing quality;
  // random tie-break for diversity across seeds.
  std::vector<VertexId> order(static_cast<size_t>(hg.num_vertices()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> key(order.size());
  for (VertexId v = 0; v < hg.num_vertices(); ++v) {
    const VertexWeight& w = hg.vertex_weight(v);
    const double w0 = target[0] > 0 ? w[0] / target[0] : 0.0;
    const double w1 = target[1] > 0 ? w[1] / target[1] : 0.0;
    key[static_cast<size_t>(v)] =
        std::max(w0, w1) + 1e-12 * static_cast<double>(rng.NextBounded(1024));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](VertexId a, VertexId b) {
                     return key[static_cast<size_t>(a)] > key[static_cast<size_t>(b)];
                   });

  Partition part(static_cast<size_t>(hg.num_vertices()), -1);
  std::vector<VertexWeight> loads(static_cast<size_t>(k), VertexWeight{0.0, 0.0});
  // Affinity of a part to a vertex: total weight of incident edges that already have a pin
  // in that part (i.e. communication avoided by co-locating).
  std::vector<double> affinity(static_cast<size_t>(k));
  // For k <= 64, bit p of part_mask[e] is set once a pin of edge e is placed in part p, so
  // scoring a vertex costs its degree times the parts its edges touch, not sum |e|. Each
  // part still receives w_e once per incident edge, in incident-edge order: the same
  // additions in the same order as a pin scan that counts each part once per edge, so
  // the scores are bit-identical to it.
  // Past 64 parts the pins are scanned and a part gains w_e once per placed pin in it;
  // counting it once per edge there would change large-k partitions.
  const bool masked = k <= 64;
  std::vector<uint64_t> part_mask(masked ? static_cast<size_t>(hg.num_edges()) : 0, 0);

  for (VertexId v : order) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    auto [ebegin, eend] = hg.VertexEdges(v);
    for (const EdgeId* ep = ebegin; ep != eend; ++ep) {
      const double weight = hg.edge_weight(*ep);
      if (masked) {
        for (uint64_t m = part_mask[static_cast<size_t>(*ep)]; m != 0; m &= m - 1) {
          affinity[static_cast<size_t>(std::countr_zero(m))] += weight;
        }
        continue;
      }
      auto [pbegin, pend] = hg.EdgePins(*ep);
      for (const VertexId* pp = pbegin; pp != pend; ++pp) {
        const PartId p = part[static_cast<size_t>(*pp)];
        if (p >= 0) {
          affinity[static_cast<size_t>(p)] += weight;
        }
      }
    }
    const VertexWeight& w = hg.vertex_weight(v);
    // Pick the feasible part with the best (affinity, -load) lexicographic score.
    int best = -1;
    double best_score = 0.0;
    for (int p = 0; p < k; ++p) {
      const auto& load = loads[static_cast<size_t>(p)];
      const bool fits =
          (target[0] <= 0 || load[0] + w[0] <= (1 + config.eps[0]) * target[0]) &&
          (target[1] <= 0 || load[1] + w[1] <= (1 + config.eps[1]) * target[1]);
      if (!fits) {
        continue;
      }
      const double norm_load =
          std::max(target[0] > 0 ? load[0] / target[0] : 0.0,
                   target[1] > 0 ? load[1] / target[1] : 0.0);
      const double score = affinity[static_cast<size_t>(p)] - 1e-3 * norm_load *
                                                                  hg.TotalEdgeWeight() / k;
      if (best < 0 || score > best_score) {
        best = p;
        best_score = score;
      }
    }
    if (best < 0) {
      // Nothing fits within tolerance (can happen with very coarse vertices): place on the
      // least-loaded part to keep imbalance minimal.
      double least = 0.0;
      for (int p = 0; p < k; ++p) {
        const auto& load = loads[static_cast<size_t>(p)];
        const double norm_load =
            std::max(target[0] > 0 ? load[0] / target[0] : 0.0,
                     target[1] > 0 ? load[1] / target[1] : 0.0);
        if (best < 0 || norm_load < least) {
          best = p;
          least = norm_load;
        }
      }
    }
    part[static_cast<size_t>(v)] = best;
    if (masked) {
      for (const EdgeId* ep = ebegin; ep != eend; ++ep) {
        part_mask[static_cast<size_t>(*ep)] |= uint64_t{1} << best;
      }
    }
    loads[static_cast<size_t>(best)][0] += w[0];
    loads[static_cast<size_t>(best)][1] += w[1];
  }
  return part;
}

namespace {

class GreedyPartitioner final : public Partitioner {
 public:
  PartitionResult Run(const Hypergraph& hg, const PartitionConfig& config) const override {
    DCP_CHECK(hg.finalized());
    DCP_CHECK_GE(config.k, 1);
    Rng rng(config.seed);
    PartitionResult result;
    result.part = GreedyAffinityPartition(hg, config, rng);
    result.connectivity_cost = ConnectivityMinusOne(hg, result.part, config.k);
    result.balanced = IsBalanced(hg, result.part, config.k, config.eps);
    return result;
  }
  std::string name() const override { return "greedy"; }
};

}  // namespace

std::unique_ptr<Partitioner> MakeGreedyPartitioner() {
  return std::make_unique<GreedyPartitioner>();
}

}  // namespace dcp
