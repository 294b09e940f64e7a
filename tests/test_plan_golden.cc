// Golden plans: full-size LongDataCollections batches planned for the end-to-end
// testbed at block 2048, one pair per mask kind. Two digests pin each plan (with the
// wall-clock planning time zeroed). The byte digest covers every byte of the binary plan
// encoding, so it moves with the format. The structural digest walks every plan field
// through the public accessors, derived tile operands and token bounds included, so it
// does not: any change to mask lowering, block generation or the planner that moves a
// single pair count, flag or placement decision shows up in both.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "data/batching.h"
#include "data/dataset.h"
#include "masks/mask.h"
#include "runtime/cluster.h"
#include "runtime/instructions.h"

namespace dcp {
namespace {

// FNV-1a, 64-bit: a digest that is identical on every platform and standard library.
// Besides raw bytes it takes 64-bit words, each as 8 little-endian bytes, and
// length-prefixed names. Enums are fed by name, so renumbering one moves no digest.
class Fnv1a64 {
 public:
  void AddBytes(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<uint8_t>(c);
      h_ *= 1099511628211ull;
    }
  }
  void Add(int64_t v) { AddWord(static_cast<uint64_t>(v)); }
  void Add(double v) { AddWord(std::bit_cast<uint64_t>(v)); }
  void Add(const std::string& name) {
    AddWord(name.size());
    AddBytes(name);
  }
  void Add(const BlockRef& ref) {
    Add(BufKindName(ref.kind));
    Add(int64_t{ref.slot});
  }
  uint64_t digest() const { return h_; }

 private:
  void AddWord(uint64_t w) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>(w >> (8 * i));
    }
    AddBytes(std::string_view(bytes, 8));
  }
  uint64_t h_ = 1469598103934665603ull;
};

// One attention tile as the executor sees it: its tile coordinates, token bounds and
// every operand it reads or writes (backward operands only on backward tiles).
void AddAttentionItem(Fnv1a64& h, const BatchLayout& layout, bool backward,
                      const AttentionWorkItem& item) {
  h.Add(int64_t{item.seq});
  h.Add(int64_t{item.group});
  h.Add(int64_t{item.q_chunk});
  h.Add(int64_t{item.kv_chunk});
  h.Add(int64_t{item.full});
  h.Add(layout.ChunkBegin(item.seq, item.q_chunk));
  h.Add(layout.ChunkEnd(item.seq, item.q_chunk));
  h.Add(layout.ChunkBegin(item.seq, item.kv_chunk));
  h.Add(layout.ChunkEnd(item.seq, item.kv_chunk));
  h.Add(item.q());
  h.Add(item.kv());
  h.Add(item.acc());
  if (backward) {
    h.Add(item.dout());
    h.Add(item.delta());
    h.Add(item.dq());
    h.Add(item.dkv());
  }
}

// A format-independent digest of every field of `plan`, walked in stream order.
uint64_t StructuralDigest(const BatchPlan& plan) {
  Fnv1a64 h;
  const BatchLayout& layout = plan.layout;
  h.Add(layout.block_size);
  h.Add(int64_t{layout.num_groups});
  h.Add(int64_t{layout.heads_per_group});
  h.Add(int64_t{layout.head_dim});
  h.Add(int64_t{layout.bytes_per_element});
  h.Add(static_cast<int64_t>(layout.seqlens.size()));
  for (int64_t len : layout.seqlens) {
    h.Add(len);
  }
  h.Add(static_cast<int64_t>(plan.chunk_home.size()));
  for (DeviceId d : plan.chunk_home) {
    h.Add(int64_t{d});
  }
  const PlanStats& stats = plan.stats;
  h.Add(stats.total_comm_bytes);
  h.Add(stats.inter_node_comm_bytes);
  h.Add(stats.max_device_comm_bytes);
  h.Add(stats.total_flops);
  h.Add(stats.max_device_flops);
  h.Add(stats.max_device_owned_bytes);
  h.Add(stats.min_device_owned_bytes);
  h.Add(stats.planning_seconds);
  h.Add(stats.partition_cost);
  h.Add(static_cast<int64_t>(plan.devices.size()));
  for (const DevicePlan& dev : plan.devices) {
    for (int32_t slots : dev.num_slots) {
      h.Add(int64_t{slots});
    }
    h.Add(static_cast<int64_t>(dev.local_chunks.size()));
    for (const LocalChunk& chunk : dev.local_chunks) {
      h.Add(int64_t{chunk.seq});
      h.Add(int64_t{chunk.chunk});
      h.Add(int64_t{chunk.group});
      h.Add(int64_t{chunk.q_slot});
      h.Add(int64_t{chunk.kv_slot});
    }
    for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
      h.Add(static_cast<int64_t>(stream->size()));
      for (const Instruction& instr : *stream) {
        h.Add(InstrKindName(instr.kind));
        h.Add(int64_t{instr.backward});
        h.Add(int64_t{instr.is_send});
        h.Add(int64_t{instr.transfer_id});
        h.Add(int64_t{instr.peer});
        h.Add(instr.flops);
        h.Add(instr.comm_bytes);
        h.Add(instr.mem_bytes);
        h.Add(instr.host_overhead);
        h.Add(static_cast<int64_t>(instr.attn_range.size()));
        for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
          AddAttentionItem(h, layout, instr.backward, item);
        }
        h.Add(static_cast<int64_t>(instr.reduce_range.size()));
        for (const ReduceItem& item : dev.reduce_items_of(instr)) {
          h.Add(ReduceModeName(item.mode));
          h.Add(item.dst);
          h.Add(item.src0);
          h.Add(item.src1);
          h.Add(item.token_count);
        }
        h.Add(static_cast<int64_t>(instr.block_range.size()));
        for (const TransferBlock& block : dev.blocks_of(instr)) {
          h.Add(block.ref);
          h.Add(block.bytes);
          h.Add(block.token_count);
        }
      }
    }
  }
  return h.digest();
}

std::string Hex(uint64_t v) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(v));
  return hex;
}

PlannerOptions GoldenPlannerOptions() {
  PlannerOptions options;
  options.block_size = 2048;
  options.num_groups = 2;
  options.heads_per_group = 4;
  options.head_dim = 128;
  return options;
}

std::vector<Batch> GoldenBatches() {
  DatasetConfig data;
  data.kind = DatasetKind::kLongDataCollections;
  data.seed = 20251;
  BatchingConfig batching;
  batching.token_budget = 131072;
  BatchStream stream{LengthSampler(data), batching};
  return stream.NextBatches(2);
}

struct Golden {
  MaskKind kind;
  uint64_t digests[2];             // Of the binary encoding.
  uint64_t structural_digests[2];  // Of StructuralDigest.
};

// Structural digests recorded from the per-token mask lowering that predates
// segment-encoded masks, before attention items dropped their derived fields; byte
// digests re-recorded for plan format version 3 (column-packed devices) from plans
// with the same structure.
constexpr Golden kGolden[] = {
    {MaskKind::kCausal,
     {0x993e7c55adb8fb1cull, 0x10969fa33f37301dull},
     {0x464524588619116dull, 0x363f5c1d0ebbc232ull}},
    {MaskKind::kLambda,
     {0x2017f6357a175308ull, 0x25b45c7a1eeda5ceull},
     {0x5ebde9b237fe2391ull, 0x04ff3a26a9705be6ull}},
    {MaskKind::kCausalBlockwise,
     {0x61a854cb12e34509ull, 0xc78fd06ee22d0496ull},
     {0x308598cb07fe486aull, 0x39fe85974e54f7bcull}},
    {MaskKind::kSharedQuestion,
     {0xc8f22fd7d84d60cdull, 0x1784e454dd2f2fceull},
     {0xf1e3cc33bc15f650ull, 0x009a042670aa489full}},
};

TEST(PlanGolden, PlansMatchRecordedDigests) {
  const std::vector<Batch> batches = GoldenBatches();
  ASSERT_EQ(batches.size(), 2u);
  const ClusterSpec cluster = ClusterSpec::EndToEndTestbed();
  const PlannerOptions options = GoldenPlannerOptions();
  for (const Golden& golden : kGolden) {
    const MaskSpec spec = MaskSpec::ForKind(golden.kind);
    for (size_t b = 0; b < batches.size(); ++b) {
      const std::vector<int64_t>& seqlens = batches[b].seqlens;
      BatchPlan plan = PlanBatch(seqlens, BuildBatchMasks(spec, seqlens), cluster, options);
      plan.stats.planning_seconds = 0.0;
      Fnv1a64 bytes;
      bytes.AddBytes(SerializePlanBinary(plan));
      const uint64_t digest = bytes.digest();
      EXPECT_EQ(digest, golden.digests[b])
          << MaskKindName(golden.kind) << " batch " << b << " digest " << Hex(digest);
      const uint64_t structural = StructuralDigest(plan);
      EXPECT_EQ(structural, golden.structural_digests[b])
          << MaskKindName(golden.kind) << " batch " << b << " structural digest "
          << Hex(structural);
    }
  }
}

}  // namespace
}  // namespace dcp
