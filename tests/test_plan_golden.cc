// Golden plan bytes: full-size LongDataCollections batches planned for the end-to-end
// testbed at block 2048, one pair per mask kind. The digests pin every byte of the
// binary plan encoding (with the wall-clock planning time zeroed), so any change to mask
// lowering, block generation or the planner that moves a single pair count, flag or
// placement decision shows up here.
#include <cstdint>
#include <cstdio>
#include <string>
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
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
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
  uint64_t digests[2];
};

// Recorded from the per-token mask lowering that predates segment-encoded masks.
constexpr Golden kGolden[] = {
    {MaskKind::kCausal, {0x444dd691dc1ce469ull, 0x0e6740ef2f2ea2d4ull}},
    {MaskKind::kLambda, {0xadafcbae8ff341f5ull, 0x249953dd536379cdull}},
    {MaskKind::kCausalBlockwise, {0x6521d5ac917e8569ull, 0xdb8611dafa4c3b23ull}},
    {MaskKind::kSharedQuestion, {0xcfdb76beaaf72dc4ull, 0x9e7379d448d08582ull}},
};

TEST(PlanGolden, PlanBytesMatchRecordedDigests) {
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
      const uint64_t digest = Fnv1a64(SerializePlanBinary(plan));
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(digest));
      EXPECT_EQ(digest, golden.digests[b])
          << MaskKindName(golden.kind) << " batch " << b << " digest " << hex;
    }
  }
}

}  // namespace
}  // namespace dcp
