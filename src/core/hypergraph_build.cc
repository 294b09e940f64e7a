#include "core/hypergraph_build.h"

#include <vector>

#include "common/check.h"

namespace dcp {

BuiltHypergraph BuildPlacementHypergraph(const BlockGraph& graph) {
  const BatchLayout& layout = graph.layout;
  BuiltHypergraph built;
  built.num_chunk_vertices = graph.num_chunks();

  for (const TokenChunk& chunk : graph.chunks) {
    built.hg.AddVertex(0.0, static_cast<double>(chunk.bytes));
  }
  for (const CompBlock& block : graph.comp_blocks) {
    built.hg.AddVertex(block.flops, 0.0);
  }

  // Collect, per (global chunk, group), the computation blocks touching the chunk's Q/O
  // blocks and its KV block.
  const int num_groups = layout.num_groups;
  const size_t buckets =
      static_cast<size_t>(graph.num_chunks()) * static_cast<size_t>(num_groups);
  std::vector<std::vector<VertexId>> qo_pins(buckets);
  std::vector<std::vector<VertexId>> kv_pins(buckets);
  for (int i = 0; i < graph.num_comp_blocks(); ++i) {
    const CompBlock& block = graph.comp_blocks[static_cast<size_t>(i)];
    const int q_gc = layout.GlobalChunkId(block.seq, block.q_chunk);
    const int kv_gc = layout.GlobalChunkId(block.seq, block.kv_chunk);
    const size_t q_key =
        static_cast<size_t>(q_gc) * static_cast<size_t>(num_groups) +
        static_cast<size_t>(block.group);
    const size_t kv_key =
        static_cast<size_t>(kv_gc) * static_cast<size_t>(num_groups) +
        static_cast<size_t>(block.group);
    qo_pins[q_key].push_back(built.CompVertex(i));
    kv_pins[kv_key].push_back(built.CompVertex(i));
  }

  for (int gc = 0; gc < graph.num_chunks(); ++gc) {
    const TokenChunk& chunk = graph.chunks[static_cast<size_t>(gc)];
    const int64_t len = chunk.length();
    for (GroupId g = 0; g < num_groups; ++g) {
      const size_t key =
          static_cast<size_t>(gc) * static_cast<size_t>(num_groups) + static_cast<size_t>(g);
      // Each bucket is read once, so the chunk's own pin is appended in place.
      if (std::vector<VertexId>& pins = qo_pins[key]; !pins.empty()) {
        pins.push_back(built.ChunkVertex(gc));
        const double weight = static_cast<double>(layout.QBlockBytes(len)) +
                              static_cast<double>(layout.OBlockBytes(len));
        built.hg.AddEdge(weight, pins);
      }
      if (std::vector<VertexId>& pins = kv_pins[key]; !pins.empty()) {
        pins.push_back(built.ChunkVertex(gc));
        built.hg.AddEdge(static_cast<double>(layout.KvBlockBytes(len)), pins);
      }
    }
  }
  built.hg.Finalize();
  return built;
}

}  // namespace dcp
