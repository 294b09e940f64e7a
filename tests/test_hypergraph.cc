#include "hypergraph/hypergraph.h"

#include <gtest/gtest.h>

#include "hypergraph/metrics.h"

namespace dcp {
namespace {

// The running example: 4 vertices, 3 edges.
Hypergraph MakeSmall() {
  Hypergraph hg;
  hg.AddVertex(1.0, 10.0);
  hg.AddVertex(2.0, 0.0);
  hg.AddVertex(3.0, 5.0);
  hg.AddVertex(4.0, 0.0);
  hg.AddEdge(2.0, std::vector<VertexId>{0, 1});
  hg.AddEdge(3.0, std::vector<VertexId>{1, 2, 3});
  hg.AddEdge(5.0, std::vector<VertexId>{0, 3});
  hg.Finalize();
  return hg;
}

TEST(Hypergraph, StructureQueries) {
  Hypergraph hg = MakeSmall();
  EXPECT_EQ(hg.num_vertices(), 4);
  EXPECT_EQ(hg.num_edges(), 3);
  EXPECT_EQ(hg.EdgeSize(1), 3);
  EXPECT_EQ(hg.VertexDegree(0), 2);
  EXPECT_EQ(hg.VertexDegree(2), 1);
  auto [pins_begin, pins_end] = hg.EdgePins(1);
  EXPECT_EQ(pins_end - pins_begin, 3);
  const VertexWeight total = hg.TotalWeight();
  EXPECT_DOUBLE_EQ(total[0], 10.0);
  EXPECT_DOUBLE_EQ(total[1], 15.0);
  EXPECT_DOUBLE_EQ(hg.TotalEdgeWeight(), 10.0);
}

TEST(Metrics, ConnectivityMinusOneByHand) {
  Hypergraph hg = MakeSmall();
  // Partition {0,1} | {2,3}: edge0 internal (lambda 1), edge1 spans both (lambda 2),
  // edge2 spans both (lambda 2) => cost 3 + 5 = 8.
  Partition part = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(ConnectivityMinusOne(hg, part, 2), 8.0);
  EXPECT_EQ(EdgeConnectivity(hg, part, 2, 0), 1);
  EXPECT_EQ(EdgeConnectivity(hg, part, 2, 1), 2);

  // All on one part: zero cost.
  Partition all_one = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(ConnectivityMinusOne(hg, all_one, 2), 0.0);
}

TEST(Metrics, PartWeightsAndBalance) {
  Hypergraph hg = MakeSmall();
  Partition part = {0, 0, 1, 1};
  auto weights = PartWeights(hg, part, 2);
  EXPECT_DOUBLE_EQ(weights[0][0], 3.0);
  EXPECT_DOUBLE_EQ(weights[1][0], 7.0);
  EXPECT_DOUBLE_EQ(weights[0][1], 10.0);
  EXPECT_DOUBLE_EQ(weights[1][1], 5.0);
  // Compute dim: max part 7 vs target 5 -> imbalance 1.4.
  auto per_dim = MaxImbalancePerDim(hg, part, 2);
  EXPECT_NEAR(per_dim[0], 1.4, 1e-12);
  EXPECT_NEAR(per_dim[1], 10.0 / 7.5, 1e-12);
  EXPECT_TRUE(IsBalanced(hg, part, 2, {0.5, 0.5}));
  EXPECT_FALSE(IsBalanced(hg, part, 2, {0.1, 0.5}));
}

}  // namespace
}  // namespace dcp
