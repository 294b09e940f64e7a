// Shared randomized-plan generators for the property-based test suites: seeded random
// (seqlens, mask, cluster shape, block size) cases whose plans exercise every mask kind,
// multi-node clusters, and ragged chunk boundaries. Used by test_property_plans.cc (plan
// validity + numeric equivalence) and test_plan_store.cc (serialization round-trips and
// corruption injection), plus the timeless-bytes form every bit-identity check uses, and
// a structurally valid plan mutation that deadlocks (test_plan_validate.cc and
// test_executor_stress.cc).
#ifndef DCP_TESTS_PLAN_TEST_UTIL_H_
#define DCP_TESTS_PLAN_TEST_UTIL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/planner.h"
#include "masks/mask.h"
#include "runtime/instructions.h"

namespace dcp {
namespace plan_test {

struct GeneratedCase {
  std::vector<int64_t> seqlens;
  MaskKind mask_kind = MaskKind::kCausal;
  int64_t block_size = 16;
  int num_nodes = 1;
  int devices_per_node = 1;
  int divisions = 3;
  uint64_t planner_seed = 1;
};

inline GeneratedCase GenerateCase(Rng& rng) {
  GeneratedCase c;
  const int num_seqs = 1 + static_cast<int>(rng.NextBounded(4));
  for (int s = 0; s < num_seqs; ++s) {
    c.seqlens.push_back(8 + static_cast<int64_t>(rng.NextBounded(73)));  // 8..80.
  }
  const auto& kinds = AllMaskKinds();
  c.mask_kind = kinds[static_cast<size_t>(rng.NextBounded(kinds.size()))];
  const int64_t block_sizes[] = {8, 16, 24};
  c.block_size = block_sizes[rng.NextBounded(3)];
  c.num_nodes = 1 + static_cast<int>(rng.NextBounded(2));
  c.devices_per_node = 1 + static_cast<int>(rng.NextBounded(3));
  c.divisions = 2 + static_cast<int>(rng.NextBounded(3));
  c.planner_seed = 1 + rng.NextU64() % 1000;
  return c;
}

inline PlannerOptions MakeOptions(const GeneratedCase& c) {
  PlannerOptions options;
  options.block_size = c.block_size;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  options.divisions = c.divisions;
  options.seed = c.planner_seed;
  return options;
}

inline MaskSpec SmallMaskSpec(MaskKind kind) {
  MaskSpec spec = MaskSpec::ForKind(kind);
  // Shrink mask parameters so short test sequences still exercise sparsity.
  spec.sink_tokens = 4;
  spec.window_tokens = 13;
  spec.icl_block_tokens = 8;
  return spec;
}

// Binary plan bytes for bit-identity checks between independent planning runs:
// everything in a plan is deterministic except stats.planning_seconds, a wall-clock
// measurement of the producing run, which is zeroed first. Bytes compare every double
// bitwise, so this is stricter than any decimal form.
inline std::string SerializeTimeless(BatchPlan plan) {
  plan.stats.planning_seconds = 0.0;
  return SerializePlanBinary(plan);
}

// Moves the first recv CommWait of `device`'s forward stream ahead of its own recv
// CommLaunch, and gives it the empty ranges of its new place so the pools stay in stream
// order. Every structural check still passes, but the wait now blocks its device before
// the launch it needs. False when `device` receives nothing.
inline bool MoveRecvWaitAheadOfItsLaunch(BatchPlan& plan, DeviceId device) {
  std::vector<Instruction>& stream = plan.devices[static_cast<size_t>(device)].instructions;
  for (size_t w = 0; w < stream.size(); ++w) {
    if (stream[w].kind != InstrKind::kCommWait) {
      continue;
    }
    for (size_t l = 0; l < w; ++l) {
      const Instruction& launch = stream[l];
      if (launch.kind != InstrKind::kCommLaunch || launch.is_send ||
          launch.transfer_id != stream[w].transfer_id) {
        continue;
      }
      Instruction wait = stream[w];
      wait.attn_range = {launch.attn_range.begin, launch.attn_range.begin};
      wait.reduce_range = {launch.reduce_range.begin, launch.reduce_range.begin};
      wait.block_range = {launch.block_range.begin, launch.block_range.begin};
      stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(w));
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(l), wait);
      return true;
    }
  }
  return false;
}

}  // namespace plan_test
}  // namespace dcp

#endif  // DCP_TESTS_PLAN_TEST_UTIL_H_
