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

// operator== is the codec-independent oracle the round-trip tests lean on; it must see
// a one-field difference buried deep inside an instruction item.
TEST(PlanEquality, DetectsDeepFieldDifferences) {
  const BatchPlan plan = MakeTestPlan();
  // Two planning runs are equal once the wall-clock field agrees.
  BatchPlan again = MakeTestPlan();
  again.stats.planning_seconds = plan.stats.planning_seconds;
  EXPECT_TRUE(again == plan);

  BatchPlan changed = plan;
  ASSERT_FALSE(changed.devices.empty());
  bool mutated = false;
  for (DevicePlan& dev : changed.devices) {
    for (Instruction& instr : dev.instructions) {
      if (!instr.attn_items.empty()) {
        instr.attn_items.back().dkv.slot += 1;
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_FALSE(changed == plan);

  BatchPlan other_layout = plan;
  other_layout.layout.head_dim += 1;
  EXPECT_FALSE(other_layout == plan);
  BatchPlan other_stats = plan;
  other_stats.stats.planning_seconds += 1.0;
  EXPECT_FALSE(other_stats == plan);
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
