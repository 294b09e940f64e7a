// Multilevel k-way hypergraph partitioner: coarsen with heavy-connectivity clustering,
// partition the coarsest graph with a randomized portfolio, then uncoarsen with FM
// refinement at every level. This is the stand-in for KaHyPar used by the paper (§4.2).
//
// The portfolio candidates (config.vcycles multilevel V-cycles with independent random
// streams, a refined direct greedy solution, and component packing) are independent, so
// they run concurrently on the global thread pool. Each candidate gets an RNG stream
// forked from the seed in a fixed order before any task starts and writes into its own
// result slot; the winner is then chosen by a fixed sequential scan and polished with
// iterated (incumbent-restricted) V-cycles. The output is therefore bit-identical to a
// sequential evaluation regardless of thread count or scheduling.
#include <algorithm>
#include <array>
#include <functional>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "hypergraph/internal.h"
#include "hypergraph/metrics.h"

namespace dcp {
namespace {

// A chain of coarse levels, optionally tracking an incumbent partition projected onto
// every level (iterated V-cycles).
struct CoarsenChain {
  std::vector<CoarseLevel> levels;
  std::vector<Partition> level_parts;  // Filled iff an incumbent was supplied.
};

// Coarsening stops at this many vertices. Very large k can push
// k * coarsen_until_per_part past the instance size, which would silently disable the
// multilevel scheme; the target is capped at half the fine graph so at least one
// contraction happens whenever contraction is possible.
int CoarseTarget(const Hypergraph& hg, const PartitionConfig& config) {
  return std::max(64, std::min(config.k * config.coarsen_until_per_part,
                               std::max(64, hg.num_vertices() / 2)));
}

// Coarsens until the target size or diminishing returns. When `incumbent` is non-null,
// merges are restricted to same-part vertex pairs and the incumbent is projected onto
// each coarse level. `first_round`, when non-null, is FirstRoundPreferences(hg, config)
// for the first level. One CoarseningScratch is reused across the whole chain.
CoarsenChain BuildCoarsenChain(const Hypergraph& hg, const PartitionConfig& config,
                               Rng& rng, const Partition* incumbent,
                               const std::vector<VertexId>* first_round) {
  const int coarse_target = CoarseTarget(hg, config);
  CoarsenChain chain;
  CoarseningScratch scratch;
  const Hypergraph* current = &hg;
  const Partition* current_part = incumbent;
  while (current->num_vertices() > coarse_target) {
    CoarseLevel level = CoarsenOnce(*current, config, rng, scratch, current_part,
                                    current == &hg ? first_round : nullptr);
    if (level.fine_to_coarse.empty()) {
      break;  // No contraction possible.
    }
    const int before = current->num_vertices();
    const int after = level.coarse.num_vertices();
    if (after >= before || after > static_cast<int>(before * 0.95)) {
      break;  // Diminishing returns.
    }
    if (incumbent != nullptr) {
      Partition coarse_part(static_cast<size_t>(after));
      for (VertexId v = 0; v < before; ++v) {
        coarse_part[static_cast<size_t>(level.fine_to_coarse[static_cast<size_t>(v)])] =
            (*current_part)[static_cast<size_t>(v)];
      }
      chain.level_parts.push_back(std::move(coarse_part));
    }
    chain.levels.push_back(std::move(level));
    current = &chain.levels.back().coarse;
    if (incumbent != nullptr) {
      current_part = &chain.level_parts.back();
    }
  }
  return chain;
}

// Seconds elapsed since `start_ns`, advancing `start_ns` to now — the one-line
// idiom the stage decomposition below uses between pipeline steps.
double TakeSeconds(int64_t& start_ns) {
  const int64_t now_ns = metrics::MonotonicNanos();
  const double seconds = static_cast<double>(now_ns - start_ns) * 1e-9;
  start_ns = now_ns;
  return seconds;
}

class MultilevelPartitioner final : public Partitioner {
 public:
  // One multilevel V-cycle: coarsen, initial-partition, uncoarsen with refinement.
  // `first_round` is the shared first matching round of the fine graph, or null.
  static Partition VCycle(const Hypergraph& hg, const PartitionConfig& config, Rng& rng,
                          const std::vector<VertexId>* first_round,
                          PartitionStageSeconds* stages) {
    int64_t mark_ns = metrics::MonotonicNanos();
    CoarsenChain chain = BuildCoarsenChain(hg, config, rng, nullptr, first_round);
    const Hypergraph& coarsest =
        chain.levels.empty() ? hg : chain.levels.back().coarse;
    stages->coarsen += TakeSeconds(mark_ns);

    Partition part = ComputeInitialPartition(coarsest, config, rng);
    stages->initial += TakeSeconds(mark_ns);
    FmRefine(coarsest, config, part, rng);

    for (size_t i = chain.levels.size(); i-- > 0;) {
      const Hypergraph& finer = (i == 0) ? hg : chain.levels[i - 1].coarse;
      const std::vector<VertexId>& map = chain.levels[i].fine_to_coarse;
      Partition projected(static_cast<size_t>(finer.num_vertices()));
      for (VertexId v = 0; v < finer.num_vertices(); ++v) {
        projected[static_cast<size_t>(v)] =
            part[static_cast<size_t>(map[static_cast<size_t>(v)])];
      }
      part = std::move(projected);
      FmRefine(finer, config, part, rng);
    }
    stages->refine += TakeSeconds(mark_ns);
    return part;
  }

  // One iterated V-cycle on an incumbent partition: coarsen with merges restricted to
  // same-part vertex pairs (so the incumbent projects losslessly onto every level), then
  // walk back up refining from the projected incumbent. FM only ever applies improving
  // moves, so the result is never worse than the input; coarse-level moves relocate whole
  // clusters at once, escaping local optima the flat refinement cannot.
  static void IteratedVCycle(const Hypergraph& hg, const PartitionConfig& config,
                             Partition& part, Rng& rng,
                             PartitionStageSeconds* stages) {
    int64_t mark_ns = metrics::MonotonicNanos();
    CoarsenChain chain = BuildCoarsenChain(hg, config, rng, &part, nullptr);
    stages->coarsen += TakeSeconds(mark_ns);
    if (chain.levels.empty()) {
      FmRefine(hg, config, part, rng);
      stages->refine += TakeSeconds(mark_ns);
      return;
    }

    FmRefine(chain.levels.back().coarse, config, chain.level_parts.back(), rng);
    for (size_t i = chain.levels.size(); i-- > 0;) {
      const Hypergraph& finer = (i == 0) ? hg : chain.levels[i - 1].coarse;
      Partition& finer_part = (i == 0) ? part : chain.level_parts[i - 1];
      const std::vector<VertexId>& map = chain.levels[i].fine_to_coarse;
      for (VertexId v = 0; v < finer.num_vertices(); ++v) {
        finer_part[static_cast<size_t>(v)] =
            chain.level_parts[i][static_cast<size_t>(map[static_cast<size_t>(v)])];
      }
      FmRefine(finer, config, finer_part, rng);
    }
    stages->refine += TakeSeconds(mark_ns);
  }

  PartitionResult Run(const Hypergraph& hg, const PartitionConfig& original) const override {
    DCP_CHECK(hg.finalized());
    DCP_CHECK_GE(original.k, 1);
    PartitionResult result;
    if (original.k == 1) {
      result.part.assign(static_cast<size_t>(hg.num_vertices()), 0);
      result.connectivity_cost = 0.0;
      result.balanced = true;
      return result;
    }

    // Large-k regime: past kLargeKThreshold parts, every V-cycle and refinement pass costs
    // proportionally more (bigger gain rows, wider boundaries), while extra portfolio
    // candidates add less — the multilevel candidate dominates. Narrow the portfolio
    // and coarsen deeper so replanning latency stays flat as the cluster grows. The
    // exposed knobs only ever tighten here; callers who want the wide portfolio at
    // large k can still raise the per-field values (the regime takes the min).
    PartitionConfig config = original;
    const bool large_k = original.k >= kLargeKThreshold;
    if (large_k) {
      config.vcycles = std::min(original.vcycles, 1);
      config.initial_tries = std::min(original.initial_tries, 2);
      config.refinement_passes = std::min(original.refinement_passes, 4);
      config.vcycle_iterations = std::min(original.vcycle_iterations, 1);
      config.coarsen_until_per_part = std::min(original.coarsen_until_per_part, 8);
    }

    // Fork one stream per candidate in a fixed order before launching anything, so every
    // candidate is independent of scheduling. Coarsening randomness gives each V-cycle a
    // genuinely different solution-space cut, which matters most on large fine-grained
    // instances; greedy + component packing guarantee the portfolio never loses to the
    // baselines (component packing finds zero-cost data-parallel placements when the
    // batch decomposes into independent sequences). In the large-k regime the refined
    // direct greedy candidate is dropped: its from-scratch flat FM pass is the single
    // most expensive portfolio member there and essentially never beats the V-cycle.
    const int vcycles = std::max(1, config.vcycles);
    Rng rng(config.seed);
    std::vector<Rng> vcycle_rngs;
    vcycle_rngs.reserve(static_cast<size_t>(vcycles));
    for (int c = 0; c < vcycles; ++c) {
      vcycle_rngs.push_back(rng.Fork());
    }
    Rng direct_rng = rng.Fork();
    Rng packed_rng = rng.Fork();
    Rng iterate_rng = rng.Fork();

    // Every V-cycle's first matching round on the fine graph scores the same
    // preferences (see FirstRoundPreferences); score them once, before the tasks start,
    // and only when the graph is large enough to be coarsened at all.
    std::vector<VertexId> first_round;
    if (hg.num_vertices() > CoarseTarget(hg, config)) {
      int64_t mark_ns = metrics::MonotonicNanos();
      first_round = FirstRoundPreferences(hg, config);
      result.stages.coarsen += TakeSeconds(mark_ns);
    }
    const std::vector<VertexId>* shared_round = first_round.empty() ? nullptr : &first_round;

    const int extras = large_k ? 1 : 2;
    std::vector<Partition> candidates(static_cast<size_t>(vcycles + extras));
    // Each concurrent candidate times its own stages into a private slot; the
    // slots are summed after the join, so the decomposition is a CPU-span sum
    // (it can exceed the portfolio's wall clock) and stays race-free.
    std::vector<PartitionStageSeconds> candidate_stages(candidates.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(candidates.size());
    for (int c = 0; c < vcycles; ++c) {
      tasks.emplace_back([&hg, &config, &vcycle_rngs, &candidates, &candidate_stages,
                          shared_round, c]() {
        candidates[static_cast<size_t>(c)] =
            VCycle(hg, config, vcycle_rngs[static_cast<size_t>(c)], shared_round,
                   &candidate_stages[static_cast<size_t>(c)]);
      });
    }
    if (!large_k) {
      tasks.emplace_back([&hg, &config, &direct_rng, &candidates,
                          &candidate_stages, vcycles]() {
        // The direct candidate's greedy solve is an initial partition and its
        // flat FM pass is refinement — bill them to the matching stages.
        PartitionStageSeconds& stages = candidate_stages[static_cast<size_t>(vcycles)];
        int64_t mark_ns = metrics::MonotonicNanos();
        Partition& direct = candidates[static_cast<size_t>(vcycles)];
        direct = GreedyAffinityPartition(hg, config, direct_rng);
        stages.initial += TakeSeconds(mark_ns);
        FmRefine(hg, config, direct, direct_rng);
        stages.refine += TakeSeconds(mark_ns);
      });
    }
    tasks.emplace_back([&hg, &config, &packed_rng, &candidates, &candidate_stages,
                        vcycles, extras]() {
      const size_t slot = static_cast<size_t>(vcycles + extras - 1);
      int64_t mark_ns = metrics::MonotonicNanos();
      candidates[slot] = ComponentPackingPartition(hg, config, packed_rng);
      candidate_stages[slot].initial += TakeSeconds(mark_ns);
    });
    GlobalThreadPool().ParallelInvoke(std::move(tasks));
    for (const PartitionStageSeconds& stages : candidate_stages) {
      result.stages.Accumulate(stages);
    }

    // Fixed-order selection: feasibility first, then connectivity cost, earlier
    // candidate winning ties. The V-cycles are listed first so the multilevel result is
    // preferred at equal score.
    auto score = [&](const Partition& candidate) {
      return std::make_pair(!IsBalanced(hg, candidate, config.k, config.eps),
                            ConnectivityMinusOne(hg, candidate, config.k));
    };
    Partition* best = &candidates[0];
    auto best_score = score(candidates[0]);
    for (size_t i = 1; i < candidates.size(); ++i) {
      auto candidate_score = score(candidates[i]);
      if (candidate_score < best_score) {
        best = &candidates[i];
        best_score = candidate_score;
      }
    }
    result.part = std::move(*best);

    // Iterated V-cycles on the winner: each round re-coarsens around the incumbent and
    // re-refines from it. Kept only on strict improvement; stops as soon as a round
    // stalls, so converged instances pay for exactly one extra (cheap) cycle.
    for (int round = 0; round < config.vcycle_iterations; ++round) {
      Partition trial = result.part;
      IteratedVCycle(hg, config, trial, iterate_rng, &result.stages);
      auto trial_score = score(trial);
      if (trial_score < best_score) {
        result.part = std::move(trial);
        best_score = trial_score;
      } else {
        break;
      }
    }

    result.connectivity_cost = best_score.second;
    result.balanced = !best_score.first;
    return result;
  }

  std::string name() const override { return "multilevel"; }
};

}  // namespace

std::unique_ptr<Partitioner> MakeMultilevelPartitioner() {
  return std::make_unique<MultilevelPartitioner>();
}

}  // namespace dcp
