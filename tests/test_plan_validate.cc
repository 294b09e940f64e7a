#include "runtime/plan_validate.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>

#include "baselines/static_planner.h"
#include "core/planner.h"

namespace dcp {
namespace {

BatchPlan MakeValidPlan() {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  const std::vector<int64_t> seqlens = {60, 35, 48};
  std::vector<SequenceMask> masks = BuildBatchMasks(MaskSpec::Lambda(4, 12), seqlens);
  return PlanBatch(seqlens, masks, cluster, options);
}

TEST(ValidatePlan, AcceptsPlannerOutput) {
  BatchPlan plan = MakeValidPlan();
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_TRUE(validation.ok) << validation.Summary();
  EXPECT_EQ(validation.Summary(), "plan valid");
}

TEST(ValidatePlan, AcceptsBaselinePlans) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  for (BaselineKind kind : AllBaselineKinds()) {
    BaselineResult baseline =
        PlanBaseline(kind, {64, 32}, MaskSpec::Causal(), cluster, options);
    const PlanValidation validation = ValidatePlan(baseline.plan);
    EXPECT_TRUE(validation.ok) << BaselineKindName(kind) << ": " << validation.Summary();
  }
}

TEST(ValidatePlan, DetectsOutOfRangeSlot) {
  BatchPlan plan = MakeValidPlan();
  for (DevicePlan& dev : plan.devices) {
    for (Instruction& instr : dev.instructions) {
      if (instr.kind == InstrKind::kBlockwiseAttention && !instr.attn_range.empty()) {
        dev.attn_items_of(instr)[0].q_slot = 10000;
        const PlanValidation validation = ValidatePlan(plan);
        EXPECT_FALSE(validation.ok);
        EXPECT_NE(validation.Summary().find("out of"), std::string::npos);
        return;
      }
    }
  }
  FAIL() << "no attention instruction found";
}

// The first forward attention instruction with at least two tiles, and its device.
std::pair<DevicePlan*, Instruction*> FindMultiTileAttention(BatchPlan& plan) {
  for (DevicePlan& dev : plan.devices) {
    for (Instruction& instr : dev.instructions) {
      if (instr.kind == InstrKind::kBlockwiseAttention && instr.attn_range.size() >= 2) {
        return {&dev, &instr};
      }
    }
  }
  return {nullptr, nullptr};
}

// Validation failures that mention `needle`.
int CountErrors(const PlanValidation& validation, const std::string& needle) {
  int count = 0;
  for (const std::string& error : validation.errors) {
    count += error.find(needle) != std::string::npos ? 1 : 0;
  }
  return count;
}

TEST(ValidatePlan, DetectsRangeOutsideItsPool) {
  BatchPlan plan = MakeValidPlan();
  auto [dev, instr] = FindMultiTileAttention(plan);
  ASSERT_NE(instr, nullptr);
  instr->attn_range.end = static_cast<uint32_t>(dev->attn_items.size()) + 1;
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_EQ(CountErrors(validation, "is outside the pool"), 1) << validation.Summary();

  // An inverted range is outside every pool too.
  BatchPlan inverted = MakeValidPlan();
  Instruction* inverted_instr = FindMultiTileAttention(inverted).second;
  ASSERT_NE(inverted_instr, nullptr);
  std::swap(inverted_instr->attn_range.begin, inverted_instr->attn_range.end);
  EXPECT_EQ(CountErrors(ValidatePlan(inverted), "is outside the pool"), 1);
}

TEST(ValidatePlan, DetectsOverlappingRanges) {
  BatchPlan plan = MakeValidPlan();
  auto [dev, instr] = FindMultiTileAttention(plan);
  ASSERT_NE(instr, nullptr);
  // The instruction now claims one tile of whichever comes next, and that one's range
  // still starts where it did: two instructions share an item.
  instr->attn_range.end += 1;
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_GE(CountErrors(validation, "overlaps"), 1) << validation.Summary();
}

TEST(ValidatePlan, DetectsGapBetweenRanges) {
  BatchPlan plan = MakeValidPlan();
  auto [dev, instr] = FindMultiTileAttention(plan);
  ASSERT_NE(instr, nullptr);
  instr->attn_range.end -= 1;  // Its last tile now belongs to no instruction.
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_GE(CountErrors(validation, "leaves a gap"), 1) << validation.Summary();
}

TEST(ValidatePlan, DetectsUnreferencedPoolItems) {
  BatchPlan plan = MakeValidPlan();
  DevicePlan& dev = plan.devices[0];
  ASSERT_FALSE(dev.attn_items.empty());
  ASSERT_FALSE(dev.reduce_items.empty());
  dev.attn_items.push_back(dev.attn_items.front());
  dev.reduce_items.push_back(dev.reduce_items.front());
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_EQ(CountErrors(validation, "no instruction references"), 2)
      << validation.Summary();
}

TEST(ValidatePlan, DetectsDroppedSend) {
  BatchPlan plan = MakeValidPlan();
  bool dropped = false;
  for (DevicePlan& dev : plan.devices) {
    auto& instrs = dev.instructions;
    for (auto it = instrs.begin(); it != instrs.end(); ++it) {
      if (it->kind == InstrKind::kCommLaunch && it->is_send) {
        instrs.erase(it);
        dropped = true;
        break;
      }
    }
    if (dropped) {
      break;
    }
  }
  ASSERT_TRUE(dropped);
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_NE(validation.Summary().find("sends"), std::string::npos);
}

// A tile names its sequence, group and chunks; each must exist before the executor
// indexes the sequence's mask and derives the tile's token bounds from them.
TEST(ValidatePlan, DetectsOutOfRangeTileCoordinates) {
  const BatchPlan valid = MakeValidPlan();
  const BatchLayout& layout = valid.layout;
  // Applies `mutate` to the first tile of the forward, then the backward stream, and
  // expects exactly one `error` each time.
  auto expect_rejected = [&](const char* error, auto mutate) {
    for (bool backward : {false, true}) {
      SCOPED_TRACE(std::string(error) + (backward ? " (backward)" : " (forward)"));
      BatchPlan plan = valid;
      AttentionWorkItem* tile = nullptr;
      for (DevicePlan& dev : plan.devices) {
        for (Instruction& instr : backward ? dev.backward_instructions : dev.instructions) {
          if (tile == nullptr && instr.kind == InstrKind::kBlockwiseAttention &&
              !instr.attn_range.empty()) {
            tile = &dev.attn_items_of(instr)[0];
          }
        }
      }
      ASSERT_NE(tile, nullptr);
      mutate(*tile);
      const PlanValidation validation = ValidatePlan(plan);
      EXPECT_FALSE(validation.ok);
      EXPECT_EQ(CountErrors(validation, error), 1) << validation.Summary();
    }
  };
  expect_rejected("attention seq",
                  [&](AttentionWorkItem& t) { t.seq = layout.num_sequences(); });
  expect_rejected("attention seq", [](AttentionWorkItem& t) { t.seq = -1; });
  expect_rejected("attention group",
                  [&](AttentionWorkItem& t) { t.group = layout.num_groups; });
  expect_rejected("attention q chunk",
                  [&](AttentionWorkItem& t) { t.q_chunk = layout.NumChunks(t.seq); });
  expect_rejected("attention kv chunk", [](AttentionWorkItem& t) { t.kv_chunk = -1; });
}

TEST(ValidatePlan, DetectsDuplicatedTile) {
  BatchPlan plan = MakeValidPlan();
  auto [dev, instr] = FindMultiTileAttention(plan);
  ASSERT_NE(instr, nullptr);
  std::span<AttentionWorkItem> tiles = dev->attn_items_of(*instr);
  tiles[1] = tiles[0];
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_NE(validation.Summary().find("computed twice"), std::string::npos);
}

TEST(ValidatePlan, DetectsChunkOwnershipGaps) {
  BatchPlan plan = MakeValidPlan();
  bool removed = false;
  for (DevicePlan& dev : plan.devices) {
    if (!dev.local_chunks.empty()) {
      dev.local_chunks.pop_back();
      removed = true;
      break;
    }
  }
  ASSERT_TRUE(removed);
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
}

TEST(SearchBlockSize, PicksTheFastestCandidateAndReturnsItsPlan) {
  ClusterSpec cluster = ClusterSpec::MicroBenchTestbed();
  PlannerOptions options;
  options.num_groups = 2;
  options.heads_per_group = 4;
  options.head_dim = 128;
  const std::vector<int64_t> seqlens = {32768, 16384, 8192, 8192};
  std::vector<SequenceMask> masks = BuildBatchMasks(MaskSpec::Causal(), seqlens);
  const BlockSizeSearchResult result =
      SearchBlockSize(seqlens, masks, cluster, options, {1024, 2048, 4096});
  ASSERT_EQ(result.candidates.size(), 3u);
  double best = result.candidates[0].second;
  for (const auto& [block, seconds] : result.candidates) {
    best = std::min(best, seconds);
    EXPECT_GT(seconds, 0.0);
  }
  EXPECT_DOUBLE_EQ(result.best_fwbw_seconds, best);
  EXPECT_EQ(result.best_plan.layout.block_size, result.best_block_size);
}

}  // namespace
}  // namespace dcp
