#include "core/api.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/reference_attention.h"

namespace dcp {
namespace {

TEST(DcpApi, ListingTwoWorkflowRunsEndToEnd) {
  // Mirrors the paper's Listing 2: loader -> executor.Prepare -> DCPAttn per iteration.
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  DatasetConfig dataset;
  dataset.max_seq_len = 512;
  dataset.min_seq_len = 32;
  BatchingConfig batching;
  batching.token_budget = 1024;
  PlannerOptions options;
  options.block_size = 64;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;

  EngineOptions engine_options;
  engine_options.planner = options;
  DcpDataLoader loader(BatchStream{LengthSampler(dataset), batching},
                       MaskSpec::SharedQuestion(),
                       std::make_shared<Engine>(cluster, engine_options));
  DcpExecutor executor;
  EXPECT_FALSE(executor.ready());

  Rng rng(3);
  for (int iteration = 0; iteration < 3; ++iteration) {
    PlannedIteration it = loader.Next();
    executor.Prepare(it.handle);
    ASSERT_TRUE(executor.ready());

    std::vector<SeqTensors> inputs;
    for (int64_t len : it.batch.seqlens) {
      inputs.push_back(SeqTensors::Random(4, 2, len, options.head_dim, rng));
    }
    std::vector<Tensor> outputs = DcpAttention::Forward(executor, inputs);
    ASSERT_EQ(outputs.size(), inputs.size());
    for (size_t s = 0; s < inputs.size(); ++s) {
      Tensor reference = ReferenceAttentionForward(inputs[s], it.masks()[s]);
      EXPECT_LT(Tensor::MaxAbsDiff(outputs[s], reference), 1e-4f);
    }
    // Backward through the same executor.
    std::vector<Tensor> douts;
    for (const Tensor& out : outputs) {
      douts.push_back(Tensor::Random(out.shape(), rng));
    }
    std::vector<SeqGrads> grads = DcpAttention::Backward(executor, douts);
    ASSERT_EQ(grads.size(), inputs.size());
  }
}

}  // namespace
}  // namespace dcp
