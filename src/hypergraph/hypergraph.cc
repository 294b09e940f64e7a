#include "hypergraph/hypergraph.h"

#include "common/check.h"

namespace dcp {

VertexId Hypergraph::AddVertex(double compute_weight, double data_weight) {
  DCP_CHECK(!finalized_);
  vertex_weights_.push_back({compute_weight, data_weight});
  return static_cast<VertexId>(vertex_weights_.size() - 1);
}

EdgeId Hypergraph::AddEdge(double weight, std::span<const VertexId> pins) {
  DCP_CHECK(!finalized_);
  DCP_CHECK(!pins.empty());
  for (VertexId v : pins) {
    DCP_CHECK(v >= 0 && v < num_vertices()) << "edge pin out of range";
    pins_.push_back(v);
  }
  edge_offsets_.push_back(static_cast<int64_t>(pins_.size()));
  edge_weights_.push_back(weight);
  return static_cast<EdgeId>(edge_weights_.size() - 1);
}

void Hypergraph::Finalize() {
  DCP_CHECK(!finalized_);
  const size_t v_count = vertex_weights_.size();
  vertex_offsets_.assign(v_count + 1, 0);
  for (VertexId v : pins_) {
    ++vertex_offsets_[static_cast<size_t>(v) + 1];
  }
  for (size_t i = 1; i <= v_count; ++i) {
    vertex_offsets_[i] += vertex_offsets_[i - 1];
  }
  incident_edges_.resize(pins_.size());
  std::vector<int64_t> cursor(vertex_offsets_.begin(), vertex_offsets_.end() - 1);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    for (int64_t p = edge_offsets_[static_cast<size_t>(e)];
         p < edge_offsets_[static_cast<size_t>(e) + 1]; ++p) {
      const VertexId v = pins_[static_cast<size_t>(p)];
      incident_edges_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = e;
    }
  }
  total_weight_ = {0.0, 0.0};
  for (const VertexWeight& w : vertex_weights_) {
    total_weight_[0] += w[0];
    total_weight_[1] += w[1];
  }
  total_edge_weight_ = 0.0;
  for (double w : edge_weights_) {
    total_edge_weight_ += w;
  }
  finalized_ = true;
}

std::pair<const VertexId*, const VertexId*> Hypergraph::EdgePins(EdgeId e) const {
  const int64_t lo = edge_offsets_[static_cast<size_t>(e)];
  const int64_t hi = edge_offsets_[static_cast<size_t>(e) + 1];
  return {pins_.data() + lo, pins_.data() + hi};
}

int Hypergraph::EdgeSize(EdgeId e) const {
  return static_cast<int>(edge_offsets_[static_cast<size_t>(e) + 1] -
                          edge_offsets_[static_cast<size_t>(e)]);
}

std::pair<const EdgeId*, const EdgeId*> Hypergraph::VertexEdges(VertexId v) const {
  DCP_CHECK(finalized_);
  const int64_t lo = vertex_offsets_[static_cast<size_t>(v)];
  const int64_t hi = vertex_offsets_[static_cast<size_t>(v) + 1];
  return {incident_edges_.data() + lo, incident_edges_.data() + hi};
}

int Hypergraph::VertexDegree(VertexId v) const {
  DCP_CHECK(finalized_);
  return static_cast<int>(vertex_offsets_[static_cast<size_t>(v) + 1] -
                          vertex_offsets_[static_cast<size_t>(v)]);
}

const VertexWeight& Hypergraph::TotalWeight() const {
  DCP_DCHECK(finalized_);
  return total_weight_;
}

double Hypergraph::TotalEdgeWeight() const {
  DCP_DCHECK(finalized_);
  return total_edge_weight_;
}

}  // namespace dcp
