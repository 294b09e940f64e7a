#include "core/block_gen.h"

#include "common/check.h"
#include "runtime/cost_model.h"

namespace dcp {

Flops BlockGraph::TotalFlops() const {
  Flops total = 0.0;
  for (const CompBlock& block : comp_blocks) {
    total += block.flops;
  }
  return total;
}

BlockGraph GenerateBlocks(const BatchLayout& layout,
                          const std::vector<SequenceMask>& masks) {
  DCP_CHECK_EQ(static_cast<int>(masks.size()), layout.num_sequences());
  BlockGraph graph;
  graph.layout = layout;

  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    DCP_CHECK_EQ(masks[static_cast<size_t>(s)].length(),
                 layout.seqlens[static_cast<size_t>(s)]);
    for (ChunkId c = 0; c < layout.NumChunks(s); ++c) {
      TokenChunk chunk;
      chunk.seq = s;
      chunk.chunk = c;
      chunk.begin = layout.ChunkBegin(s, c);
      chunk.end = layout.ChunkEnd(s, c);
      chunk.bytes = layout.TokenChunkBytes(chunk.length());
      graph.chunks.push_back(chunk);
    }
  }

  const Flops pair_flops = AttentionPairFlops(layout.head_dim) * layout.heads_per_group;
  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    const SequenceMask& mask = masks[static_cast<size_t>(s)];
    const int num_chunks = layout.NumChunks(s);
    for (ChunkId qc = 0; qc < num_chunks; ++qc) {
      const int64_t qb = layout.ChunkBegin(s, qc);
      const int64_t qe = layout.ChunkEnd(s, qc);
      // All masks are causal at heart: kv chunks beyond the q chunk are always empty, so
      // the scan per q chunk stops there (keeps generation O(tiles), not O(chunks^2)).
      // Classify sums the tile's pairs in closed form over the mask's row segments, so a
      // tile costs O(segments it overlaps), not O(block).
      for (ChunkId kc = 0; kc <= qc; ++kc) {
        const int64_t kb = layout.ChunkBegin(s, kc);
        const int64_t ke = layout.ChunkEnd(s, kc);
        int64_t pairs = 0;
        const BlockCoverage coverage = mask.Classify(qb, qe, kb, ke, &pairs);
        if (coverage == BlockCoverage::kEmpty) {
          continue;
        }
        for (GroupId g = 0; g < layout.num_groups; ++g) {
          CompBlock block;
          block.seq = s;
          block.group = g;
          block.q_chunk = qc;
          block.kv_chunk = kc;
          block.pairs = pairs;
          block.flops = static_cast<Flops>(pairs) * pair_flops;
          block.full = coverage == BlockCoverage::kFull;
          graph.comp_blocks.push_back(block);
        }
      }
    }
  }
  return graph;
}

}  // namespace dcp
