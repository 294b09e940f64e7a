#include "core/plan_compile.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "masks/mask.h"

namespace dcp {
namespace {

struct PlanFixture {
  ClusterSpec cluster;
  std::vector<int64_t> seqlens;
  std::vector<SequenceMask> masks;
  BatchPlan plan;
};

PlanFixture MakeFixture(MaskKind kind, std::vector<int64_t> seqlens, int64_t block_size,
                        int nodes = 2, int devs = 2) {
  PlanFixture f;
  f.cluster.num_nodes = nodes;
  f.cluster.devices_per_node = devs;
  f.seqlens = std::move(seqlens);
  MaskSpec spec = MaskSpec::ForKind(kind);
  spec.sink_tokens = 4;
  spec.window_tokens = 12;
  spec.icl_block_tokens = 8;
  f.masks = BuildBatchMasks(spec, f.seqlens);
  PlannerOptions options;
  options.block_size = block_size;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  f.plan = PlanBatch(f.seqlens, f.masks, f.cluster, options);
  return f;
}

TEST(PlanCompile, EveryTransferHasMatchedSendAndRecvWithEqualPayload) {
  PlanFixture f = MakeFixture(MaskKind::kCausal, {60, 33, 47}, 12);
  struct Ends {
    int sends = 0;
    int recvs = 0;
    size_t send_blocks = 0;
    size_t recv_blocks = 0;
    Bytes send_bytes = 0;
    Bytes recv_bytes = 0;
    int waits = 0;
  };
  std::map<int32_t, Ends> transfers;
  for (const DevicePlan& dev : f.plan.devices) {
    for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
      for (const Instruction& instr : *stream) {
        if (instr.kind == InstrKind::kCommLaunch) {
          Ends& ends = transfers[instr.transfer_id];
          if (instr.is_send) {
            ++ends.sends;
            ends.send_blocks += instr.block_range.size();
            ends.send_bytes = instr.comm_bytes;
          } else {
            ++ends.recvs;
            ends.recv_blocks += instr.block_range.size();
            ends.recv_bytes = instr.comm_bytes;
          }
        } else if (instr.kind == InstrKind::kCommWait) {
          ++transfers[instr.transfer_id].waits;
        }
      }
    }
  }
  EXPECT_FALSE(transfers.empty());
  for (const auto& [id, ends] : transfers) {
    EXPECT_EQ(ends.sends, 1) << "transfer " << id;
    EXPECT_EQ(ends.recvs, 1) << "transfer " << id;
    EXPECT_EQ(ends.send_blocks, ends.recv_blocks) << "transfer " << id;
    EXPECT_EQ(ends.send_bytes, ends.recv_bytes) << "transfer " << id;
    EXPECT_GE(ends.waits, 1) << "transfer " << id;
  }
}

TEST(PlanCompile, EveryCompBlockTileAppearsExactlyOnce) {
  PlanFixture f = MakeFixture(MaskKind::kSharedQuestion, {64, 40, 28}, 8);
  // Count tiles per (seq, group, q_chunk, kv_chunk) across all devices.
  std::map<std::tuple<SeqId, GroupId, ChunkId, ChunkId>, int> tiles;
  for (const DevicePlan& dev : f.plan.devices) {
    for (const Instruction& instr : dev.instructions) {
      if (instr.kind != InstrKind::kBlockwiseAttention) {
        continue;
      }
      for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
        ++tiles[{item.seq, item.group, item.q_chunk, item.kv_chunk}];
      }
    }
  }
  for (const auto& [key, count] : tiles) {
    EXPECT_EQ(count, 1);
  }
  // Tile count matches what the masks say should exist (non-empty tiles x groups).
  size_t expected = 0;
  const BatchLayout& layout = f.plan.layout;
  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    for (ChunkId qc = 0; qc < layout.NumChunks(s); ++qc) {
      for (ChunkId kc = 0; kc <= qc; ++kc) {
        int64_t pairs = 0;
        f.masks[static_cast<size_t>(s)].Classify(
            layout.ChunkBegin(s, qc), layout.ChunkEnd(s, qc), layout.ChunkBegin(s, kc),
            layout.ChunkEnd(s, kc), &pairs);
        if (pairs > 0) {
          expected += static_cast<size_t>(layout.num_groups);
        }
      }
    }
  }
  EXPECT_EQ(tiles.size(), expected);
}

TEST(PlanCompile, SlotReferencesAreInBounds) {
  PlanFixture f = MakeFixture(MaskKind::kLambda, {96, 50}, 10, 2, 3);
  for (const DevicePlan& dev : f.plan.devices) {
    auto check_ref = [&](const BlockRef& ref) {
      EXPECT_GE(ref.slot, 0);
      EXPECT_LT(ref.slot, dev.num_slots[static_cast<size_t>(ref.kind)])
          << BufKindName(ref.kind);
    };
    for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
      for (const Instruction& instr : *stream) {
        for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
          check_ref(item.q());
          check_ref(item.kv());
          check_ref(item.acc());
          if (instr.backward) {
            check_ref(item.dout());
            check_ref(item.delta());
            check_ref(item.dq());
            check_ref(item.dkv());
          }
        }
        for (const ReduceItem& item : dev.reduce_items_of(instr)) {
          check_ref(item.dst);
          check_ref(item.src0);
          if (item.mode == ReduceMode::kComputeDelta) {
            check_ref(item.src1);
          }
        }
        for (const TransferBlock& block : dev.blocks_of(instr)) {
          check_ref(block.ref);
        }
      }
    }
  }
}

TEST(PlanCompile, LocalChunksPartitionTheBatch) {
  PlanFixture f = MakeFixture(MaskKind::kCausal, {37, 64, 20}, 16);
  const BatchLayout& layout = f.plan.layout;
  std::set<std::tuple<SeqId, ChunkId, GroupId>> seen;
  for (const DevicePlan& dev : f.plan.devices) {
    for (const LocalChunk& chunk : dev.local_chunks) {
      auto key = std::make_tuple(chunk.seq, chunk.chunk, chunk.group);
      EXPECT_TRUE(seen.insert(key).second) << "chunk owned twice";
    }
  }
  size_t expected = 0;
  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    expected += static_cast<size_t>(layout.NumChunks(s)) *
                static_cast<size_t>(layout.num_groups);
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(PlanCompile, CommStatsAreConsistent) {
  PlanFixture f = MakeFixture(MaskKind::kCausal, {128, 40}, 16);
  // Re-derive forward comm volume from the instruction streams (each transfer counted once
  // via its send side).
  Bytes total = 0;
  for (const DevicePlan& dev : f.plan.devices) {
    for (const Instruction& instr : dev.instructions) {
      if (instr.kind == InstrKind::kCommLaunch && instr.is_send) {
        total += instr.comm_bytes;
      }
    }
  }
  EXPECT_EQ(total, f.plan.stats.total_comm_bytes);
  EXPECT_LE(f.plan.stats.inter_node_comm_bytes, f.plan.stats.total_comm_bytes);
}

TEST(PlanCompile, SingleDivisionPlansStillExecute) {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 4;
  const std::vector<int64_t> seqlens = {64, 32};
  MaskSpec spec = MaskSpec::Causal();
  std::vector<SequenceMask> masks = BuildBatchMasks(spec, seqlens);
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  options.divisions = 1;
  BatchPlan plan = PlanBatch(seqlens, masks, cluster, options);
  int attn_instrs = 0;
  for (const DevicePlan& dev : plan.devices) {
    for (const Instruction& instr : dev.instructions) {
      attn_instrs += instr.kind == InstrKind::kBlockwiseAttention ? 1 : 0;
    }
  }
  EXPECT_GT(attn_instrs, 0);
}

}  // namespace
}  // namespace dcp
