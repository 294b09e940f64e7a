// Internal building blocks shared between the partitioner translation units. Not part of
// the public API.
#ifndef DCP_HYPERGRAPH_INTERNAL_H_
#define DCP_HYPERGRAPH_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "hypergraph/partitioner.h"

namespace dcp {

// First-fit-decreasing with edge affinity (defined in greedy_partitioner.cc).
Partition GreedyAffinityPartition(const Hypergraph& hg, const PartitionConfig& config,
                                  Rng& rng);

// One coarsening level: clusters of fine vertices and the coarse hypergraph they induce.
struct CoarseLevel {
  Hypergraph coarse;
  std::vector<VertexId> fine_to_coarse;  // size = fine vertex count.
};

// Timestamped flat score accumulator: an entry is live only if its stamp matches the
// current epoch, so clearing between vertices is O(1) instead of O(touched). Each
// parallel scoring task owns one exclusively.
struct ScoreAccumulator {
  std::vector<double> score;
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;
  std::vector<VertexId> touched;  // Candidates scored for the current vertex.
};

// Reusable scratch for CoarsenOnce. A V-cycle coarsens many levels back to back; holding
// these buffers across levels (they only shrink as the graph contracts) removes all
// per-level heap churn from the clustering and edge-dedup loops. `accumulators` holds
// one ScoreAccumulator per scoring chunk — chunk boundaries depend only on the vertex
// count and config.coarsening_grain, never on the thread count, so the parallel scoring
// phase is bit-deterministic for any pool size.
struct CoarseningScratch {
  std::vector<VertexId> cluster;
  std::vector<VertexWeight> cluster_weight;
  std::vector<VertexId> order;
  std::vector<VertexId> preference;  // Per vertex: preferred merge partner (or -1).
  std::vector<uint8_t> retry;        // Re-score in the next matching round.
  std::vector<ScoreAccumulator> accumulators;
  std::vector<VertexId> compact;   // Cluster id -> coarse vertex id.
  std::vector<VertexId> pin_buf;   // Remapped pins of the current edge.
  // Flat coarse-edge store for sort-based dedup of identical pin sets.
  std::vector<int64_t> edge_offsets;
  std::vector<VertexId> edge_pins;
  std::vector<double> edge_weights;
  std::vector<uint64_t> edge_hashes;
  std::vector<int32_t> edge_order;
};

// Heavy-connectivity clustering pass (defined in coarsening.cc). Respects the per-cluster
// weight cap from `config`. Returns nullopt-equivalent empty result if no contraction was
// possible (coarse vertex count == fine vertex count). When `restrict_part` is non-null
// (size = num_vertices), vertices are only merged with vertices of the same part, so an
// existing partition projects losslessly onto the coarse graph — the building block of
// iterated V-cycles that re-coarsen around the incumbent solution.
//
// When `first_round` is non-null it must be FirstRoundPreferences(hg, config), and
// `restrict_part` must be null: the first matching round then takes its preferences
// from it instead of scoring them, and the result is identical to scoring them here.
CoarseLevel CoarsenOnce(const Hypergraph& hg, const PartitionConfig& config, Rng& rng,
                        CoarseningScratch& scratch,
                        const Partition* restrict_part = nullptr,
                        const std::vector<VertexId>* first_round = nullptr);

// The preferences of CoarsenOnce's first matching round with no incumbent: each vertex's
// preferred merge partner, or -1. That round reads only the graph, k and the cluster cap
// (every vertex is still its own cluster, and the RNG only orders the merges that
// follow), so every portfolio V-cycle would score the same preferences on the fine
// graph. MultilevelPartitioner::Run scores them once and hands them to each V-cycle's
// first level; deeper levels and incumbent-restricted V-cycles still score their own.
std::vector<VertexId> FirstRoundPreferences(const Hypergraph& hg,
                                            const PartitionConfig& config);

// Portfolio initial partitioning on the (coarsest) hypergraph (initial_partition.cc).
Partition ComputeInitialPartition(const Hypergraph& hg, const PartitionConfig& config,
                                  Rng& rng);

// Greedy K-way FM-style boundary refinement, in place (refinement.cc). Returns the
// improvement in connectivity cost (>= 0).
double FmRefine(const Hypergraph& hg, const PartitionConfig& config, Partition& part,
                Rng& rng);

// Packs whole connected components (first-fit-decreasing on the dominant weight
// dimension), then rebalances/refines. When the batch decomposes into many independent
// sequences this finds the zero-communication data-parallel-style placement directly
// (paper Fig. 5b/5c territory). Defined in initial_partition.cc.
Partition ComponentPackingPartition(const Hypergraph& hg, const PartitionConfig& config,
                                    Rng& rng);

}  // namespace dcp

#endif  // DCP_HYPERGRAPH_INTERNAL_H_
