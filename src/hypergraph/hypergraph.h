// Hypergraph with 2-dimensional vertex weights and weighted hyperedges, stored in CSR form.
// This is the substrate for the paper's placement formulation (§4.2): vertex weight
// dimension 0 models computation FLOPs, dimension 1 models data bytes, and each hyperedge's
// weight is the byte size of the data block it represents.
#ifndef DCP_HYPERGRAPH_HYPERGRAPH_H_
#define DCP_HYPERGRAPH_HYPERGRAPH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dcp {

using VertexId = int32_t;
using EdgeId = int32_t;
using PartId = int32_t;
using VertexWeight = std::array<double, 2>;  // [compute, data]

class Hypergraph {
 public:
  Hypergraph() = default;

  // --- Construction (call Finalize() once done). ---
  VertexId AddVertex(double compute_weight, double data_weight);
  // Copies `pins` into the edge store.
  EdgeId AddEdge(double weight, std::span<const VertexId> pins);
  // Builds the vertex->incident-edge index; must be called before queries.
  void Finalize();

  // --- Queries. ---
  int num_vertices() const { return static_cast<int>(vertex_weights_.size()); }
  int num_edges() const { return static_cast<int>(edge_weights_.size()); }
  bool finalized() const { return finalized_; }

  const VertexWeight& vertex_weight(VertexId v) const {
    return vertex_weights_[static_cast<size_t>(v)];
  }
  double edge_weight(EdgeId e) const { return edge_weights_[static_cast<size_t>(e)]; }

  // Pins (vertices) of edge e.
  std::pair<const VertexId*, const VertexId*> EdgePins(EdgeId e) const;
  int EdgeSize(EdgeId e) const;
  // Edges incident to vertex v.
  std::pair<const EdgeId*, const EdgeId*> VertexEdges(VertexId v) const;
  int VertexDegree(VertexId v) const;

  // Aggregates are computed once in Finalize(); O(1) afterwards. The partitioner hot
  // paths (greedy scoring, FM balance targets, coarsening caps) call these per vertex, so
  // they must not rescan the weight arrays.
  const VertexWeight& TotalWeight() const;
  double TotalEdgeWeight() const;

 private:
  std::vector<VertexWeight> vertex_weights_;
  std::vector<double> edge_weights_;
  std::vector<int64_t> edge_offsets_{0};  // size E+1 into pins_.
  std::vector<VertexId> pins_;
  // Built by Finalize():
  std::vector<int64_t> vertex_offsets_;  // size V+1 into incident_edges_.
  std::vector<EdgeId> incident_edges_;
  VertexWeight total_weight_ = {0.0, 0.0};
  double total_edge_weight_ = 0.0;
  bool finalized_ = false;
};

// A k-way partition: part id per vertex.
using Partition = std::vector<PartId>;

}  // namespace dcp

#endif  // DCP_HYPERGRAPH_HYPERGRAPH_H_
