#include "hypergraph/partitioner.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hypergraph/internal.h"
#include "hypergraph/metrics.h"

namespace dcp {
namespace {

// Random hypergraph with planted cluster structure: `k` groups of vertices, most edges
// internal to a group, a few crossing. A good partitioner should recover low cost.
Hypergraph MakeClustered(int k, int per_group, int edges_per_group, double cross_fraction,
                         Rng& rng) {
  Hypergraph hg;
  for (int v = 0; v < k * per_group; ++v) {
    hg.AddVertex(1.0 + rng.NextDouble(), 1.0 + rng.NextDouble());
  }
  for (int g = 0; g < k; ++g) {
    for (int e = 0; e < edges_per_group; ++e) {
      std::vector<VertexId> pins;
      const int size = 2 + static_cast<int>(rng.NextBounded(4));
      const bool cross = rng.NextDouble() < cross_fraction;
      for (int p = 0; p < size; ++p) {
        const int group = cross && p == 0 ? (g + 1) % k : g;
        pins.push_back(group * per_group + static_cast<int>(rng.NextBounded(
                                               static_cast<uint64_t>(per_group))));
      }
      std::sort(pins.begin(), pins.end());
      pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
      if (pins.size() >= 2) {
        hg.AddEdge(1.0 + rng.NextDouble() * 3.0, pins);
      }
    }
  }
  hg.Finalize();
  return hg;
}

class PartitionerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(PartitionerProperty, MultilevelIsBalancedAndValid) {
  const auto [k, per_group, seed] = GetParam();
  Rng rng(seed);
  Hypergraph hg = MakeClustered(k, per_group, per_group * 2, 0.15, rng);
  PartitionConfig config;
  config.k = k;
  config.eps = {0.25, 0.25};
  config.seed = seed;
  auto partitioner = MakeMultilevelPartitioner();
  PartitionResult result = partitioner->Run(hg, config);
  ASSERT_EQ(static_cast<int>(result.part.size()), hg.num_vertices());
  for (PartId p : result.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, k);
  }
  EXPECT_TRUE(result.balanced) << "imbalance " << MaxImbalance(hg, result.part, k);
  EXPECT_DOUBLE_EQ(result.connectivity_cost, ConnectivityMinusOne(hg, result.part, k));
}

TEST_P(PartitionerProperty, MultilevelBeatsOrMatchesGreedy) {
  const auto [k, per_group, seed] = GetParam();
  Rng rng(seed + 1000);
  Hypergraph hg = MakeClustered(k, per_group, per_group * 2, 0.2, rng);
  PartitionConfig config;
  config.k = k;
  config.eps = {0.3, 0.3};
  config.seed = seed;
  const double multilevel =
      MakeMultilevelPartitioner()->Run(hg, config).connectivity_cost;
  const double greedy = MakeGreedyPartitioner()->Run(hg, config).connectivity_cost;
  EXPECT_LE(multilevel, greedy * 1.05 + 1e-9)
      << "multilevel much worse than greedy: " << multilevel << " vs " << greedy;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionerProperty,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(16, 64),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, uint64_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Partitioner, RecoversPlantedClustersWhenCrossTrafficIsZero) {
  Rng rng(5);
  Hypergraph hg = MakeClustered(4, 32, 80, 0.0, rng);
  PartitionConfig config;
  config.k = 4;
  config.eps = {0.3, 0.3};
  PartitionResult result = MakeMultilevelPartitioner()->Run(hg, config);
  // With zero cross edges a perfect partition has zero cost; accept near-zero.
  EXPECT_LE(result.connectivity_cost, 0.05 * hg.TotalEdgeWeight());
}

TEST(Partitioner, KEqualsOneIsTrivial) {
  Rng rng(6);
  Hypergraph hg = MakeClustered(2, 8, 10, 0.2, rng);
  PartitionConfig config;
  config.k = 1;
  PartitionResult result = MakeMultilevelPartitioner()->Run(hg, config);
  EXPECT_DOUBLE_EQ(result.connectivity_cost, 0.0);
  EXPECT_TRUE(result.balanced);
}

TEST(Partitioner, DeterministicForFixedSeed) {
  Rng rng(7);
  Hypergraph hg = MakeClustered(4, 24, 50, 0.2, rng);
  PartitionConfig config;
  config.k = 4;
  config.seed = 77;
  auto partitioner = MakeMultilevelPartitioner();
  PartitionResult a = partitioner->Run(hg, config);
  PartitionResult b = partitioner->Run(hg, config);
  EXPECT_EQ(a.part, b.part);
}

TEST(Partitioner, GreedyHandlesVerticesLargerThanTarget) {
  // One vertex holds most of the weight: cannot balance, but must not crash and must
  // produce a valid assignment.
  Hypergraph hg;
  hg.AddVertex(100.0, 100.0);
  hg.AddVertex(1.0, 1.0);
  hg.AddVertex(1.0, 1.0);
  hg.AddEdge(1.0, std::vector<VertexId>{0, 1, 2});
  hg.Finalize();
  PartitionConfig config;
  config.k = 2;
  config.eps = {0.1, 0.1};
  PartitionResult result = MakeGreedyPartitioner()->Run(hg, config);
  EXPECT_EQ(static_cast<int>(result.part.size()), 3);
  EXPECT_FALSE(result.balanced);  // Honestly reported as infeasible.
}

// GreedyAffinityPartition as it scored parts before per-edge part masks: every incident
// edge's pins are scanned, and a part gains the edge weight once per edge. The oracle for
// k <= 64, where the masked version must make the same additions in the same order.
Partition PerPinGreedyAffinityPartition(const Hypergraph& hg, const PartitionConfig& config,
                                        Rng& rng) {
  const int k = config.k;
  const VertexWeight total = hg.TotalWeight();
  const std::array<double, 2> target = {total[0] / k, total[1] / k};
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
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return key[static_cast<size_t>(a)] > key[static_cast<size_t>(b)];
  });
  Partition part(static_cast<size_t>(hg.num_vertices()), -1);
  std::vector<VertexWeight> loads(static_cast<size_t>(k), VertexWeight{0.0, 0.0});
  std::vector<double> affinity(static_cast<size_t>(k));
  for (VertexId v : order) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    auto [ebegin, eend] = hg.VertexEdges(v);
    for (const EdgeId* ep = ebegin; ep != eend; ++ep) {
      auto [pbegin, pend] = hg.EdgePins(*ep);
      uint64_t seen = 0;
      for (const VertexId* pp = pbegin; pp != pend; ++pp) {
        const PartId p = part[static_cast<size_t>(*pp)];
        if (p >= 0 && (seen & (uint64_t{1} << p)) == 0) {
          affinity[static_cast<size_t>(p)] += hg.edge_weight(*ep);
          seen |= uint64_t{1} << p;
        }
      }
    }
    const VertexWeight& w = hg.vertex_weight(v);
    auto norm_load = [&](int p) {
      const auto& load = loads[static_cast<size_t>(p)];
      return std::max(target[0] > 0 ? load[0] / target[0] : 0.0,
                      target[1] > 0 ? load[1] / target[1] : 0.0);
    };
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
      const double score =
          affinity[static_cast<size_t>(p)] - 1e-3 * norm_load(p) * hg.TotalEdgeWeight() / k;
      if (best < 0 || score > best_score) {
        best = p;
        best_score = score;
      }
    }
    if (best < 0) {
      double least = 0.0;
      for (int p = 0; p < k; ++p) {
        if (best < 0 || norm_load(p) < least) {
          best = p;
          least = norm_load(p);
        }
      }
    }
    part[static_cast<size_t>(v)] = best;
    loads[static_cast<size_t>(best)][0] += w[0];
    loads[static_cast<size_t>(best)][1] += w[1];
  }
  return part;
}

// Random edges of 2 to `max_pins` pins, some of them repeating a pin, over vertices
// whose weights span two orders of magnitude (so some parts fill up).
Hypergraph MakeRandomWithRepeats(int n, int edges, int max_pins, Rng& rng) {
  Hypergraph hg;
  for (int v = 0; v < n; ++v) {
    const double scale = rng.NextBounded(10) == 0 ? 50.0 : 1.0;
    hg.AddVertex(scale * (0.5 + rng.NextDouble()), scale * (0.5 + rng.NextDouble()));
  }
  for (int e = 0; e < edges; ++e) {
    const int size =
        2 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_pins - 1)));
    std::vector<VertexId> pins;
    for (int p = 0; p < size; ++p) {
      pins.push_back(static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(n))));
    }
    hg.AddEdge(0.25 + rng.NextDouble() * 8.0, pins);
  }
  hg.Finalize();
  return hg;
}

TEST(GreedyAffinity, PartMasksMatchThePerPinScan) {
  for (int k : {2, 3, 8, 16, 33, 64}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE("k " + std::to_string(k) + " seed " + std::to_string(seed));
      Rng build(seed * 131 + static_cast<uint64_t>(k));
      const Hypergraph hg = MakeRandomWithRepeats(40 * k, 120 * k, 12, build);
      PartitionConfig config;
      config.k = k;
      config.eps = {0.05, 0.1};
      Rng rng_a(seed);
      Rng rng_b(seed);
      const Partition masked = GreedyAffinityPartition(hg, config, rng_a);
      EXPECT_EQ(masked, PerPinGreedyAffinityPartition(hg, config, rng_b));
      EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());  // Both drew the same stream.
    }
  }
}

void ExpectSameHypergraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v)) << "vertex " << v;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e)) << "edge " << e;
    auto [ab, ae] = a.EdgePins(e);
    auto [bb, be] = b.EdgePins(e);
    EXPECT_TRUE(std::equal(ab, ae, bb, be)) << "edge " << e;
  }
}

// A precomputed first round must leave CoarsenOnce's level exactly as scoring it in place
// does, including when the cluster weight cap rejects candidates.
TEST(Coarsening, SharedFirstRoundGivesTheSameLevel) {
  for (const double cap_frac : {0.5, 0.02}) {
    for (uint64_t seed : {3, 4, 5, 6}) {
      SCOPED_TRACE("cap " + std::to_string(cap_frac) + " seed " + std::to_string(seed));
      Rng build(seed);
      const Hypergraph hg = MakeRandomWithRepeats(600, 1500, 6, build);
      PartitionConfig config;
      config.k = 8;
      config.max_cluster_weight_frac = cap_frac;
      config.coarsening_grain = 64;  // Several scoring chunks.
      const std::vector<VertexId> first_round = FirstRoundPreferences(hg, config);
      ASSERT_EQ(first_round.size(), static_cast<size_t>(hg.num_vertices()));

      Rng rng_a(seed + 100);
      Rng rng_b(seed + 100);
      CoarseningScratch scratch_a;
      CoarseningScratch scratch_b;
      const CoarseLevel scored = CoarsenOnce(hg, config, rng_a, scratch_a);
      const CoarseLevel shared =
          CoarsenOnce(hg, config, rng_b, scratch_b, /*restrict_part=*/nullptr, &first_round);
      ASSERT_FALSE(scored.fine_to_coarse.empty());
      EXPECT_EQ(scored.fine_to_coarse, shared.fine_to_coarse);
      ExpectSameHypergraph(scored.coarse, shared.coarse);
      EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
    }
  }
  // The small cap binds: it changes which partners the first round prefers.
  Rng build(3);
  const Hypergraph hg = MakeRandomWithRepeats(600, 1500, 6, build);
  PartitionConfig loose;
  loose.k = 8;
  PartitionConfig tight = loose;
  tight.max_cluster_weight_frac = 0.02;
  EXPECT_NE(FirstRoundPreferences(hg, loose), FirstRoundPreferences(hg, tight));
}

}  // namespace
}  // namespace dcp
