#include "core/dataloader.h"

#include <gtest/gtest.h>

namespace dcp {
namespace {

DatasetConfig SmallDataset() {
  DatasetConfig config;
  config.kind = DatasetKind::kLongDataCollections;
  config.max_seq_len = 2048;
  config.min_seq_len = 64;
  config.seed = 42;
  return config;
}

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.block_size = 256;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 16;
  return options;
}

// An Engine with the small planner options and a pool of `planner_threads` threads.
std::shared_ptr<Engine> SmallEngine(const ClusterSpec& cluster, int planner_threads = 2) {
  EngineOptions options;
  options.planner = SmallPlanner();
  options.planner_threads = planner_threads;
  return std::make_shared<Engine>(cluster, options);
}

TEST(DcpDataLoader, ProducesPlansMatchingDirectPlanning) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  BatchingConfig batching;
  batching.token_budget = 4096;

  DcpDataLoader loader(BatchStream{LengthSampler(SmallDataset()), batching},
                       MaskSpec::Causal(), SmallEngine(cluster, /*planner_threads=*/3),
                       /*lookahead=*/2);
  // Reference stream with identical config.
  BatchStream reference{LengthSampler(SmallDataset()), batching};

  for (int iter = 0; iter < 6; ++iter) {
    PlannedIteration it = loader.Next();
    Batch expect = reference.NextBatch();
    EXPECT_EQ(it.batch.seqlens, expect.seqlens) << "iteration " << iter;
    EXPECT_EQ(static_cast<int>(it.masks().size()), expect.NumSequences());
    EXPECT_EQ(it.plan().layout.seqlens, expect.seqlens);
    EXPECT_EQ(it.plan().num_devices(), 4);
    // Deterministic planning: replanning the same batch gives the same configuration.
    BatchPlan replanned = PlanBatch(expect.seqlens, it.masks(), cluster, SmallPlanner());
    EXPECT_EQ(replanned.chunk_home, it.plan().chunk_home);
    EXPECT_EQ(replanned.stats.total_comm_bytes, it.plan().stats.total_comm_bytes);
  }
}

TEST(DcpDataLoader, AutoTunesBlockSizePerBatchSignature) {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  BatchingConfig batching;
  batching.token_budget = 2048;

  EngineOptions engine_options;
  engine_options.planner = SmallPlanner();
  engine_options.auto_tune_block_size = true;
  engine_options.tune_block_sizes = {128, 256};
  auto engine = std::make_shared<Engine>(cluster, engine_options);

  DcpDataLoader loader(BatchStream{LengthSampler(SmallDataset()), batching},
                       MaskSpec::Causal(), engine, /*lookahead=*/1);
  for (int iter = 0; iter < 4; ++iter) {
    PlannedIteration it = loader.Next();
    // The loader path went through the tuner: the plan's block size is one of the
    // candidates and matches what AutoTune (now a tune-cache hit) picks for this batch.
    const AutoTuneResult tuned =
        engine->AutoTune(it.batch.seqlens, MaskSpec::Causal()).value();
    EXPECT_TRUE(tuned.tuned_from_cache) << "iteration " << iter;
    EXPECT_EQ(it.plan().layout.block_size, tuned.best_block_size);
    EXPECT_TRUE(it.plan().layout.block_size == 128 || it.plan().layout.block_size == 256);
  }
  const PlanCacheStats stats = engine->cache_stats();
  EXPECT_GT(stats.tune_misses, 0);
  EXPECT_GT(stats.tune_hits, 0);  // The assertions above replay every batch through the tuner.
}

TEST(DcpDataLoader, MaintainsLookaheadWindow) {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  BatchingConfig batching;
  batching.token_budget = 2048;
  DcpDataLoader loader(BatchStream{LengthSampler(SmallDataset()), batching},
                       MaskSpec::Lambda(), SmallEngine(cluster), /*lookahead=*/3);
  EXPECT_EQ(loader.PendingPlans(), 4);  // lookahead + 1 in flight.
  (void)loader.Next();
  EXPECT_EQ(loader.PendingPlans(), 4);  // Refilled.
}

}  // namespace
}  // namespace dcp
