#include "runtime/plan_validate.h"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/static_planner.h"
#include "core/planner.h"
#include "runtime/stream_progress.h"
#include "tests/plan_test_util.h"

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

// The first local chunk of the plan, on the first device that owns one.
LocalChunk* FirstLocalChunk(BatchPlan& plan) {
  for (DevicePlan& dev : plan.devices) {
    if (!dev.local_chunks.empty()) {
      return &dev.local_chunks[0];
    }
  }
  return nullptr;
}

// A local chunk the layout does not have must not stand in for the one it replaced: the
// executor would read the sequence and chunk it names.
TEST(ValidatePlan, RejectsLocalChunkOutsideTheLayout) {
  BatchPlan plan = MakeValidPlan();
  ASSERT_EQ(plan.layout.num_sequences(), 3);
  LocalChunk* chunk = FirstLocalChunk(plan);
  ASSERT_NE(chunk, nullptr);
  chunk->seq = 7;
  chunk->chunk = 1000;
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  EXPECT_EQ(CountErrors(validation, "is outside the layout"), 1) << validation.Summary();
  EXPECT_EQ(CountErrors(validation, "local chunks cover"), 1) << validation.Summary();

  for (auto mutate : {+[](LocalChunk& c) { c.seq = -1; }, +[](LocalChunk& c) { c.group = 2; },
                      +[](LocalChunk& c) { c.chunk = -1; }}) {
    BatchPlan bad = MakeValidPlan();
    mutate(*FirstLocalChunk(bad));
    EXPECT_EQ(CountErrors(ValidatePlan(bad), "is outside the layout"), 1);
  }
}

// The executor loads a local chunk's inputs into its slots and reads its outputs back from
// them, so each slot must exist in every buffer kind the chunk uses.
TEST(ValidatePlan, RejectsLocalChunkSlotOutOfRange) {
  for (const bool kv : {false, true}) {
    SCOPED_TRACE(kv ? "kv slot" : "q slot");
    BatchPlan plan = MakeValidPlan();
    LocalChunk* chunk = FirstLocalChunk(plan);
    ASSERT_NE(chunk, nullptr);
    (kv ? chunk->kv_slot : chunk->q_slot) = 1 << 20;
    const PlanValidation validation = ValidatePlan(plan);
    EXPECT_FALSE(validation.ok);
    ASSERT_EQ(validation.errors.size(), 1u) << validation.Summary();
    EXPECT_NE(validation.errors[0].find(kv ? ") kv: KV slot 1048576 out of [0, "
                                           : ") q: Q slot 1048576 out of [0, "),
              std::string::npos)
        << validation.errors[0];
  }
}

// A decoded plan can carry any block size; the chunk counts divide by it.
TEST(ValidatePlan, RejectsNonPositiveBlockSize) {
  for (const int64_t block_size : {int64_t{0}, int64_t{-16}}) {
    BatchPlan plan = MakeValidPlan();
    plan.layout.block_size = block_size;
    const PlanValidation validation = ValidatePlan(plan);
    EXPECT_FALSE(validation.ok);
    ASSERT_EQ(validation.errors.size(), 1u) << validation.Summary();
    EXPECT_NE(validation.errors[0].find("is not positive"), std::string::npos);
  }
}

// The executor's and the simulator's failure case, caught before either runs: a recv wait
// moved ahead of its own launch passes every structural check, yet blocks its device.
TEST(ValidatePlan, RejectsRecvWaitAheadOfItsLaunch) {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 4;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 1;
  options.heads_per_group = 1;
  options.head_dim = 8;
  const std::vector<int64_t> seqlens = {128, 64};
  BatchPlan plan = PlanBatch(seqlens, BuildBatchMasks(MaskSpec::Causal(), seqlens),
                             cluster, options);
  ASSERT_TRUE(ValidatePlan(plan).ok);
  ASSERT_TRUE(plan_test::MoveRecvWaitAheadOfItsLaunch(plan, /*device=*/3));
  const PlanValidation validation = ValidatePlan(plan);
  EXPECT_FALSE(validation.ok);
  ASSERT_EQ(validation.errors.size(), 1u) << validation.Summary();
  EXPECT_NE(validation.errors[0].find("deadlock (backward=0)"), std::string::npos);
  EXPECT_NE(validation.errors[0].find("device 3 at instruction"), std::string::npos)
      << validation.errors[0];
}

// Two devices exchange one transfer each way, with no compute. Device d receives transfer
// 1 - d and sends transfer d. With `wait_first`, each waits on its incoming transfer before
// launching its outgoing one: a cycle no order can run.
BatchPlan TwoDeviceExchange(bool wait_first) {
  BatchPlan plan;
  plan.layout.seqlens = {16};
  plan.layout.block_size = 16;
  plan.layout.num_groups = 1;
  plan.chunk_home = {0};
  plan.devices.resize(2);
  plan.devices[0].local_chunks.push_back(LocalChunk{});
  plan.devices[0].num_slots.fill(1);  // The local chunk's slot 0 in every buffer.
  for (DeviceId d : {0, 1}) {
    DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    const DeviceId peer = 1 - d;
    auto launch = [&](bool send) {
      Instruction& instr = dev.Append(dev.instructions, InstrKind::kCommLaunch);
      instr.is_send = send;
      instr.transfer_id = send ? d : peer;
      instr.peer = peer;
    };
    auto wait = [&] { dev.Append(dev.instructions, InstrKind::kCommWait).transfer_id = peer; };
    launch(/*send=*/false);
    if (wait_first) {
      wait();
      launch(/*send=*/true);
    } else {
      launch(/*send=*/true);
      wait();
    }
  }
  return plan;
}

TEST(ValidatePlan, RejectsTwoDeviceWaitCycle) {
  const PlanValidation exchange = ValidatePlan(TwoDeviceExchange(/*wait_first=*/false));
  EXPECT_TRUE(exchange.ok) << exchange.Summary();
  const PlanValidation cycle = ValidatePlan(TwoDeviceExchange(/*wait_first=*/true));
  EXPECT_FALSE(cycle.ok);
  ASSERT_EQ(cycle.errors.size(), 1u) << cycle.Summary();
  EXPECT_NE(cycle.errors[0].find("deadlock"), std::string::npos) << cycle.errors[0];
}

// Every step the core takes, as (device, position in its stream, transfer id).
using Visit = std::tuple<DeviceId, size_t, int32_t>;

Status RunAndRecord(const BatchPlan& plan, std::vector<Visit>& visits) {
  std::map<int32_t, int*> state_of;  // Transfer id -> the core's state for it.
  return RunStreams<int>(plan, /*backward=*/false, [&](DeviceId device,
                                                       const Instruction& instr,
                                                       int* transfer) {
    const auto& stream = plan.devices[static_cast<size_t>(device)].instructions;
    visits.emplace_back(device, static_cast<size_t>(&instr - stream.data()),
                        instr.transfer_id);
    // A launch or wait gets its transfer's state, the same one each time.
    if (instr.kind == InstrKind::kCommLaunch || instr.kind == InstrKind::kCommWait) {
      ASSERT_NE(transfer, nullptr);
      EXPECT_EQ(state_of.emplace(instr.transfer_id, transfer).first->second, transfer);
    } else {
      EXPECT_EQ(transfer, nullptr);
    }
  });
}

TEST(RunStreams, RunsRoundRobinAndWaitsForBothLaunches) {
  std::vector<Visit> visits;
  const Status status = RunAndRecord(TwoDeviceExchange(/*wait_first=*/false), visits);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Device 0 runs until its wait on transfer 1, whose send device 1 has not launched yet.
  // Device 1 then runs to its end, since both launches of transfer 0 have run, and device 0
  // finishes in the next round.
  const std::vector<Visit> want = {{0, 0, 1}, {0, 1, 0}, {1, 0, 0},
                                   {1, 1, 1}, {1, 2, 0}, {0, 2, 1}};
  EXPECT_EQ(visits, want);
}

TEST(RunStreams, DeadlockNamesEachBlockedDeviceAndTransfer) {
  std::vector<Visit> visits;
  const Status status = RunAndRecord(TwoDeviceExchange(/*wait_first=*/true), visits);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "deadlock (backward=0): no device can make progress; device 0 at instruction 1 "
            "waits on transfer 1 (send not launched, recv launched); device 1 at "
            "instruction 1 waits on transfer 0 (send not launched, recv launched)");
  const std::vector<Visit> want = {{0, 0, 1}, {1, 0, 0}};  // The two recv launches.
  EXPECT_EQ(visits, want);
}

TEST(RunStreams, RejectsASecondLaunchAndAnIdOutOfRange) {
  BatchPlan twice = TwoDeviceExchange(/*wait_first=*/false);
  DevicePlan& dev = twice.devices[1];
  Instruction& again = dev.Append(dev.instructions, InstrKind::kCommLaunch);
  again.is_send = true;
  again.transfer_id = 1;
  again.peer = 0;
  std::vector<Visit> visits;
  Status status = RunAndRecord(twice, visits);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "transfer 1 launches a second send on device 1 (backward=0)");

  // Ids index the run's per-transfer state, so one past the plan's launch count (here
  // four) is refused before any state is touched.
  BatchPlan far = TwoDeviceExchange(/*wait_first=*/false);
  far.devices[0].instructions[2].transfer_id = 4;
  status = RunAndRecord(far, visits);
  EXPECT_EQ(status.message(),
            "transfer 4 is outside [0, 4), the plan's launch count, on device 0 (backward=0)");
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
