#include "runtime/instructions.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "masks/mask.h"

namespace dcp {
namespace {

BatchPlan MakeTestPlan() {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  const std::vector<int64_t> seqlens = {40, 23, 64};
  MaskSpec spec = MaskSpec::SharedQuestion();
  std::vector<SequenceMask> masks = BuildBatchMasks(spec, seqlens);
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  return PlanBatch(seqlens, masks, cluster, options);
}

TEST(PlanSerialization, BinaryRoundTripPreservesEverything) {
  const BatchPlan plan = MakeTestPlan();
  const std::string bytes = SerializePlanBinary(plan);
  StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Field-for-field equal: a field either codec direction drops fails here.
  EXPECT_TRUE(restored.value() == plan);
  // Re-serializing the restored plan reproduces the bytes exactly.
  EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
}

// Pin all nine PlanStats fields through the binary round trip, each set to a distinct
// non-default value, so a stats field neither direction carries can ever drift.
TEST(PlanSerialization, BinaryRoundTripPreservesAllStatsFields) {
  BatchPlan plan = MakeTestPlan();
  plan.stats.total_comm_bytes = 1001;
  plan.stats.inter_node_comm_bytes = 1002;
  plan.stats.max_device_comm_bytes = 1003;
  plan.stats.total_flops = 1004.25;
  plan.stats.max_device_flops = 1005.5;
  plan.stats.max_device_owned_bytes = 1006;
  plan.stats.min_device_owned_bytes = 1007;
  plan.stats.planning_seconds = 1008.125;
  plan.stats.partition_cost = 1009.0625;
  StatusOr<BatchPlan> restored = DeserializePlanBinary(SerializePlanBinary(plan));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().stats == plan.stats);
  EXPECT_EQ(restored.value().stats.partition_cost, 1009.0625);
}

// A plan no planner emits: one device whose pools hold all three item kinds, and one
// instruction with items of two kinds, which the format allows. Field values are
// distinct and non-default.
BatchPlan MakeHandBuiltPlan() {
  BatchPlan plan;
  plan.layout.block_size = 16;
  plan.layout.seqlens = {40};
  plan.chunk_home = {0, 0, 0};
  plan.devices.resize(2);
  DevicePlan& dev = plan.devices[0];
  dev.num_slots = {3, 3, 3, 4, 3, 4, 4, 3};
  dev.local_chunks.push_back({0, 1, 0, 2, 1});

  Instruction& attn = dev.Append(dev.instructions, InstrKind::kBlockwiseAttention);
  attn.flops = 12.5;
  attn.mem_bytes = 77;
  AttentionWorkItem tile;
  tile.seq = 0;
  tile.group = 1;
  tile.q_chunk = 2;
  tile.kv_chunk = 0;
  tile.q_slot = 1;
  tile.kv_slot = 2;
  tile.full = true;
  dev.Add(attn, tile);
  tile.full = false;
  tile.kv_chunk = 1;
  dev.Add(attn, tile);

  Instruction& send = dev.Append(dev.instructions, InstrKind::kCommLaunch);
  send.transfer_id = 7;
  send.peer = 1;
  send.is_send = true;
  send.comm_bytes = 4096;
  dev.Add(send, TransferBlock{{BufKind::kKV, 2}, 2048, 16});
  dev.Add(send, TransferBlock{{BufKind::kQ, 1}, 2048, 15});

  dev.Append(dev.instructions, InstrKind::kCommWait).transfer_id = 7;

  // Backward: a reduction that also carries a transfer block.
  Instruction& mixed = dev.Append(dev.backward_instructions, InstrKind::kBlockwiseReduction);
  mixed.host_overhead = 1.5e-6;
  ReduceItem reduce;
  reduce.mode = ReduceMode::kComputeDelta;
  reduce.dst = {BufKind::kDelta, 2};
  reduce.src0 = {BufKind::kDO, 2};
  reduce.src1 = {BufKind::kO, 2};
  reduce.token_count = 8;
  dev.Add(mixed, reduce);
  dev.Add(mixed, TransferBlock{{BufKind::kDKV, 1}, 1024, 8});

  Instruction& bw_attn =
      dev.Append(dev.backward_instructions, InstrKind::kBlockwiseAttention);
  bw_attn.backward = true;
  tile.q_slot = 2;
  dev.Add(bw_attn, tile);
  return plan;
}

TEST(PlanSerialization, HandBuiltPoolsRoundTrip) {
  const BatchPlan plan = MakeHandBuiltPlan();
  const DevicePlan& dev = plan.devices[0];
  EXPECT_EQ(dev.attn_items.size(), 3u);
  EXPECT_EQ(dev.reduce_items.size(), 1u);
  EXPECT_EQ(dev.blocks.size(), 3u);
  const Instruction& mixed = dev.backward_instructions[0];
  EXPECT_EQ(dev.reduce_items_of(mixed).size(), 1u);
  ASSERT_EQ(dev.blocks_of(mixed).size(), 1u);
  EXPECT_EQ(dev.blocks_of(mixed)[0].bytes, 1024);
  // Backward ranges continue where the forward stream's ended.
  EXPECT_EQ(dev.backward_instructions[1].attn_range, (ItemRange{2, 3}));

  const std::string bytes = SerializePlanBinary(plan);
  StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value() == plan);
  EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
  // The empty second device decodes to empty pools, not missing ones.
  EXPECT_TRUE(restored.value().devices[1] == DevicePlan{});
}

// operator== is the codec-independent oracle the round-trip tests lean on; it must see
// a one-field difference buried deep inside any pool item, and a moved range boundary.
TEST(PlanEquality, DetectsDeepFieldDifferences) {
  const BatchPlan plan = MakeTestPlan();
  // Two planning runs are equal once the wall-clock field agrees.
  BatchPlan again = MakeTestPlan();
  again.stats.planning_seconds = plan.stats.planning_seconds;
  EXPECT_TRUE(again == plan);

  // The last device with items of each kind.
  auto last_with = [](BatchPlan& p, auto pool) -> DevicePlan& {
    for (auto it = p.devices.rbegin(); it != p.devices.rend(); ++it) {
      if (!((*it).*pool).empty()) {
        return *it;
      }
    }
    ADD_FAILURE() << "no device has items of this kind";
    return p.devices.front();
  };
  BatchPlan changed = plan;
  last_with(changed, &DevicePlan::attn_items).attn_items.back().kv_slot += 1;
  EXPECT_FALSE(changed == plan);
  changed = plan;
  last_with(changed, &DevicePlan::reduce_items).reduce_items.back().token_count += 1;
  EXPECT_FALSE(changed == plan);
  changed = plan;
  last_with(changed, &DevicePlan::blocks).blocks.back().ref.kind = BufKind::kDelta;
  EXPECT_FALSE(changed == plan);

  BatchPlan hand = MakeHandBuiltPlan();
  const BatchPlan hand_copy = hand;
  hand.devices[0].attn_items.back().q_chunk += 1;
  EXPECT_FALSE(hand == hand_copy);

  // Same pools, one tile moved from an instruction to the next one with tiles.
  changed = plan;
  DevicePlan& dev = last_with(changed, &DevicePlan::attn_items);
  std::vector<Instruction*> with_tiles;
  for (auto* stream : {&dev.instructions, &dev.backward_instructions}) {
    for (Instruction& instr : *stream) {
      if (!instr.attn_range.empty()) {
        with_tiles.push_back(&instr);
      }
    }
  }
  ASSERT_GE(with_tiles.size(), 2u);
  ASSERT_EQ(with_tiles[0]->attn_range.end, with_tiles[1]->attn_range.begin);
  with_tiles[0]->attn_range.end -= 1;
  with_tiles[1]->attn_range.begin -= 1;
  EXPECT_FALSE(changed == plan);

  BatchPlan other_layout = plan;
  other_layout.layout.head_dim += 1;
  EXPECT_FALSE(other_layout == plan);
  BatchPlan other_stats = plan;
  other_stats.stats.planning_seconds += 1.0;
  EXPECT_FALSE(other_stats == plan);
}

// A tile stores two slots; every operand it reads or writes is one of them in the
// buffer kind the operand names.
TEST(AttentionWorkItem, OperandsAreDerivedFromTheTwoSlots) {
  AttentionWorkItem tile;
  tile.q_slot = 5;
  tile.kv_slot = 9;
  EXPECT_EQ(tile.q(), (BlockRef{BufKind::kQ, 5}));
  EXPECT_EQ(tile.acc(), (BlockRef{BufKind::kAcc, 5}));
  EXPECT_EQ(tile.dout(), (BlockRef{BufKind::kDO, 5}));
  EXPECT_EQ(tile.delta(), (BlockRef{BufKind::kDelta, 5}));
  EXPECT_EQ(tile.dq(), (BlockRef{BufKind::kDQ, 5}));
  EXPECT_EQ(tile.kv(), (BlockRef{BufKind::kKV, 9}));
  EXPECT_EQ(tile.dkv(), (BlockRef{BufKind::kDKV, 9}));
}

TEST(PlanToString, MentionsDevicesAndInstructionKinds) {
  BatchPlan plan = MakeTestPlan();
  const std::string text = PlanToString(plan);
  EXPECT_NE(text.find("BatchPlan: 4 devices"), std::string::npos);
  EXPECT_NE(text.find("device 0"), std::string::npos);
  EXPECT_NE(text.find("BlockwiseAttention"), std::string::npos);
}

TEST(Names, AllEnumsHaveNames) {
  EXPECT_EQ(BufKindName(BufKind::kQ), "Q");
  EXPECT_EQ(BufKindName(BufKind::kDKV), "dKV");
  EXPECT_EQ(InstrKindName(InstrKind::kCommLaunch), "CommLaunch");
  EXPECT_EQ(ReduceModeName(ReduceMode::kFinalize), "Finalize");
}

}  // namespace
}  // namespace dcp
