// Heavy-connectivity clustering coarsening (hMETIS/KaHyPar family), run as synchronous
// rounds so the expensive part parallelizes deterministically:
//
//  Phase 1 (parallel, read-only): every still-unmerged cluster representative scores the
//  neighbouring clusters by summed connectivity sum(w_e / (|e| - 1)) over its incident
//  edges — against an immutable snapshot of the current clustering — and records its
//  preferred merge target (ties to the lowest cluster id). The phase splits over
//  fixed-size vertex ranges on the thread pool; chunk boundaries depend on the vertex
//  count and config.coarsening_grain, never on the pool size, so the result is
//  bit-identical for any thread count.
//
//  Phase 2 (serial, cheap): representatives are visited in random order and merged into
//  their preferred target's current cluster, subject to a cluster weight cap that keeps
//  the coarsest graph partitionable within the balance tolerance.
//
// Rounds repeat (bounded) until merges dry up. The rounds recover what vertex-by-vertex
// sequential clustering got from seeing earlier merges immediately: preference conflicts
// (many vertices electing the same hub) resolve in the next round against the updated
// clustering instead of stalling contraction.
//
// All working memory lives in the caller-provided CoarseningScratch: score accumulation
// uses per-chunk timestamped flat arrays instead of hash maps, and coarse-edge dedup
// sorts a flat (hash, pins) edge store instead of hashing vectors, so a V-cycle's
// coarsening chain performs no per-level allocations once the first level has sized the
// buffers.
#include <algorithm>
#include <functional>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"
#include "hypergraph/internal.h"

namespace dcp {
namespace {

uint64_t HashPins(const VertexId* begin, const VertexId* end) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const VertexId* p = begin; p != end; ++p) {
    h ^= static_cast<uint64_t>(*p) + 0x9E3779B9ull + (h << 6) + (h >> 2);
  }
  return h;
}

// Edges this large carry no clustering signal and would make scoring quadratic.
constexpr int kMaxScoredEdgeSize = 512;

// Synchronous matching rounds per level; contraction usually saturates in two.
constexpr int kMaxRounds = 4;

// Phase 1 worker: fills preference[v] for representatives in [begin, end) against the
// (frozen) cluster snapshot, using its own accumulator. `cluster` must be fully path
// compressed, so cluster[u] IS u's representative.
void ScoreRange(const Hypergraph& hg, const Partition* restrict_part,
                const std::vector<VertexId>& cluster,
                const std::vector<VertexWeight>& cluster_weight,
                const std::array<double, 2>& cluster_cap, size_t begin, size_t end,
                ScoreAccumulator& accum, std::vector<VertexId>& preference,
                const std::vector<uint8_t>* retry) {
  const size_t n = static_cast<size_t>(hg.num_vertices());
  accum.score.resize(n, 0.0);
  accum.stamp.resize(n, 0);
  for (size_t vi = begin; vi < end; ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    if (retry != nullptr && !(*retry)[vi]) {
      continue;  // Keeps its round-1 outcome; only conflict losers re-score.
    }
    preference[vi] = -1;
    if (cluster[vi] != v) {
      continue;  // Not a representative: already merged in an earlier round.
    }
    const uint64_t epoch = ++accum.epoch;
    accum.touched.clear();
    auto [ebegin, eend] = hg.VertexEdges(v);
    for (const EdgeId* ep = ebegin; ep != eend; ++ep) {
      const int size = hg.EdgeSize(*ep);
      if (size <= 1 || size > kMaxScoredEdgeSize) {
        continue;
      }
      const double edge_score = hg.edge_weight(*ep) / (size - 1);
      auto [pbegin, pend] = hg.EdgePins(*ep);
      for (const VertexId* pp = pbegin; pp != pend; ++pp) {
        const VertexId c = cluster[static_cast<size_t>(*pp)];
        if (c == v) {
          continue;
        }
        if (restrict_part != nullptr &&
            (*restrict_part)[static_cast<size_t>(c)] !=
                (*restrict_part)[static_cast<size_t>(v)]) {
          continue;  // Merges must preserve the incumbent partition.
        }
        if (accum.stamp[static_cast<size_t>(c)] != epoch) {
          accum.stamp[static_cast<size_t>(c)] = epoch;
          accum.score[static_cast<size_t>(c)] = 0.0;
          accum.touched.push_back(c);
        }
        accum.score[static_cast<size_t>(c)] += edge_score;
      }
    }
    VertexId best = -1;
    double best_score = 0.0;
    const VertexWeight& vw = cluster_weight[vi];
    for (VertexId candidate : accum.touched) {
      const VertexWeight& cw = cluster_weight[static_cast<size_t>(candidate)];
      if (cw[0] + vw[0] > cluster_cap[0] || cw[1] + vw[1] > cluster_cap[1]) {
        continue;  // Snapshot prefilter; phase 2 re-checks against live weights.
      }
      const double s = accum.score[static_cast<size_t>(candidate)];
      if (s > best_score || (s == best_score && best >= 0 && candidate < best)) {
        best = candidate;
        best_score = s;
      }
    }
    preference[vi] = best;
  }
}

std::array<double, 2> ClusterCap(const Hypergraph& hg, const PartitionConfig& config) {
  const VertexWeight& total = hg.TotalWeight();
  return {total[0] / config.k * config.max_cluster_weight_frac,
          total[1] / config.k * config.max_cluster_weight_frac};
}

size_t ScoringGrain(const PartitionConfig& config) {
  return static_cast<size_t>(std::max(64, config.coarsening_grain));
}

// Every vertex starts as its own cluster.
void ResetClusters(const Hypergraph& hg, CoarseningScratch& scratch) {
  const size_t n = static_cast<size_t>(hg.num_vertices());
  scratch.cluster.resize(n);
  std::iota(scratch.cluster.begin(), scratch.cluster.end(), 0);
  scratch.cluster_weight.resize(n);
  for (VertexId v = 0; v < hg.num_vertices(); ++v) {
    scratch.cluster_weight[static_cast<size_t>(v)] = hg.vertex_weight(v);
  }
  scratch.preference.resize(n);
}

// Phase 1 over every vertex: fixed-size ranges on the thread pool, one accumulator each.
void ScorePreferences(const Hypergraph& hg, const Partition* restrict_part,
                      const std::array<double, 2>& cluster_cap, size_t grain,
                      CoarseningScratch& scratch, const std::vector<uint8_t>* retry) {
  const size_t n = static_cast<size_t>(hg.num_vertices());
  const size_t chunks = (n + grain - 1) / grain;
  if (scratch.accumulators.size() < chunks) {
    scratch.accumulators.resize(chunks);
  }
  GlobalThreadPool().ParallelFor(n, grain, [&](size_t begin, size_t end, size_t chunk) {
    ScoreRange(hg, restrict_part, scratch.cluster, scratch.cluster_weight, cluster_cap,
               begin, end, scratch.accumulators[chunk], scratch.preference, retry);
  });
}

}  // namespace

std::vector<VertexId> FirstRoundPreferences(const Hypergraph& hg,
                                            const PartitionConfig& config) {
  CoarseningScratch scratch;
  ResetClusters(hg, scratch);
  ScorePreferences(hg, /*restrict_part=*/nullptr, ClusterCap(hg, config),
                   ScoringGrain(config), scratch, /*retry=*/nullptr);
  return std::move(scratch.preference);
}

CoarseLevel CoarsenOnce(const Hypergraph& hg, const PartitionConfig& config, Rng& rng,
                        CoarseningScratch& scratch, const Partition* restrict_part,
                        const std::vector<VertexId>* first_round) {
  const int n = hg.num_vertices();
  DCP_DCHECK(first_round == nullptr ||
             (restrict_part == nullptr && first_round->size() == static_cast<size_t>(n)));
  const std::array<double, 2> cluster_cap = ClusterCap(hg, config);
  ResetClusters(hg, scratch);
  std::vector<VertexId>& cluster = scratch.cluster;
  std::vector<VertexWeight>& cluster_weight = scratch.cluster_weight;

  std::vector<VertexId>& order = scratch.order;
  order.resize(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  // Representative lookup with path compression (clusters form short chains as
  // representatives themselves merge later in a round).
  auto find_rep = [&cluster](VertexId v) {
    VertexId rep = v;
    while (cluster[static_cast<size_t>(rep)] != rep) {
      rep = cluster[static_cast<size_t>(rep)];
    }
    while (cluster[static_cast<size_t>(v)] != rep) {
      VertexId next = cluster[static_cast<size_t>(v)];
      cluster[static_cast<size_t>(v)] = rep;
      v = next;
    }
    return rep;
  };

  std::vector<VertexId>& preference = scratch.preference;
  std::vector<uint8_t>& retry = scratch.retry;
  retry.assign(static_cast<size_t>(n), 0);
  const size_t grain = ScoringGrain(config);

  int merges = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    // Full path compression so phase 1 can read representatives with one load.
    for (VertexId v = 0; v < n; ++v) {
      find_rep(v);
    }

    // --- Phase 1: parallel preference scoring over fixed vertex ranges. ---
    // Rounds after the first only re-score representatives whose merge failed last
    // round (preference conflicts, weight-cap collisions): everyone else either merged,
    // or had no viable candidate — and candidates only get heavier as clusters grow.
    // A precomputed first round was scored on this very start state.
    if (round == 0 && first_round != nullptr) {
      std::copy(first_round->begin(), first_round->end(), preference.begin());
    } else {
      ScorePreferences(hg, restrict_part, cluster_cap, grain, scratch,
                       round == 0 ? nullptr : &retry);
    }

    // --- Phase 2: serial random-order merging against live cluster weights. ---
    int round_merges = 0;
    for (VertexId v : order) {
      retry[static_cast<size_t>(v)] = 0;
      if (cluster[static_cast<size_t>(v)] != v) {
        continue;  // Merged in an earlier round (or earlier this round).
      }
      const VertexId pref = preference[static_cast<size_t>(v)];
      if (pref < 0) {
        continue;
      }
      const VertexId target = find_rep(pref);
      if (target == v) {
        retry[static_cast<size_t>(v)] = 1;  // Partner collapsed into v; rescore.
        continue;
      }
      const VertexWeight& vw = cluster_weight[static_cast<size_t>(v)];
      const VertexWeight& tw = cluster_weight[static_cast<size_t>(target)];
      if (vw[0] + tw[0] > cluster_cap[0] || vw[1] + tw[1] > cluster_cap[1]) {
        retry[static_cast<size_t>(v)] = 1;  // Cap collision; rescore next round.
        continue;
      }
      cluster[static_cast<size_t>(v)] = target;
      cluster_weight[static_cast<size_t>(target)][0] += vw[0];
      cluster_weight[static_cast<size_t>(target)][1] += vw[1];
      ++round_merges;
    }
    merges += round_merges;
    if (round_merges <= n / 64) {
      break;  // Contraction dried up; further rounds would only re-score survivors.
    }
  }

  CoarseLevel level;
  if (merges == 0) {
    return level;  // Caller detects empty mapping => no contraction possible.
  }
  level.fine_to_coarse.assign(static_cast<size_t>(n), -1);

  // Compact cluster ids. Cluster representatives are vertices with cluster[v] == v; others
  // reach their representative through find_rep (chains are path-compressed on the fly).
  std::vector<VertexId>& compact = scratch.compact;
  compact.assign(static_cast<size_t>(n), -1);
  VertexId next_id = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (cluster[static_cast<size_t>(v)] == v) {
      compact[static_cast<size_t>(v)] = next_id++;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    level.fine_to_coarse[static_cast<size_t>(v)] = compact[static_cast<size_t>(find_rep(v))];
    DCP_CHECK_GE(level.fine_to_coarse[static_cast<size_t>(v)], 0);
  }

  // Coarse vertex weights.
  std::vector<VertexWeight> coarse_weights(static_cast<size_t>(next_id),
                                           VertexWeight{0.0, 0.0});
  for (VertexId v = 0; v < n; ++v) {
    const VertexId c = level.fine_to_coarse[static_cast<size_t>(v)];
    coarse_weights[static_cast<size_t>(c)][0] += hg.vertex_weight(v)[0];
    coarse_weights[static_cast<size_t>(c)][1] += hg.vertex_weight(v)[1];
  }
  for (const VertexWeight& w : coarse_weights) {
    level.coarse.AddVertex(w[0], w[1]);
  }

  // Coarse edges: remap pins, dedupe within an edge, drop singletons. Surviving edges go
  // into a flat (offsets, pins, weight, hash) store; identical pin sets are then merged by
  // sorting edge indices by (hash, pins) and summing weights over equal runs. This keeps
  // the coarse edge order deterministic across platforms (unlike hash-map iteration).
  scratch.edge_offsets.clear();
  scratch.edge_offsets.push_back(0);
  scratch.edge_pins.clear();
  scratch.edge_weights.clear();
  scratch.edge_hashes.clear();
  std::vector<VertexId>& pins = scratch.pin_buf;
  for (EdgeId e = 0; e < hg.num_edges(); ++e) {
    pins.clear();
    auto [pbegin, pend] = hg.EdgePins(e);
    for (const VertexId* pp = pbegin; pp != pend; ++pp) {
      pins.push_back(level.fine_to_coarse[static_cast<size_t>(*pp)]);
    }
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() <= 1) {
      continue;  // Fully internal edge: can never be cut again.
    }
    scratch.edge_pins.insert(scratch.edge_pins.end(), pins.begin(), pins.end());
    scratch.edge_offsets.push_back(static_cast<int64_t>(scratch.edge_pins.size()));
    scratch.edge_weights.push_back(hg.edge_weight(e));
    scratch.edge_hashes.push_back(HashPins(pins.data(), pins.data() + pins.size()));
  }

  const int32_t kept = static_cast<int32_t>(scratch.edge_weights.size());
  scratch.edge_order.resize(static_cast<size_t>(kept));
  std::iota(scratch.edge_order.begin(), scratch.edge_order.end(), 0);
  auto edge_pins_of = [&scratch](int32_t i) {
    return std::make_pair(
        scratch.edge_pins.data() + scratch.edge_offsets[static_cast<size_t>(i)],
        scratch.edge_pins.data() + scratch.edge_offsets[static_cast<size_t>(i) + 1]);
  };
  // TOTAL order — ties on (hash, pins) break on the edge index — so the sorted
  // permutation is unique: any correct sort produces bit-identical output, and
  // duplicate pin sets merge their weights in original edge order on every platform
  // and thread count.
  auto edge_less = [&](int32_t a, int32_t b) {
    if (scratch.edge_hashes[static_cast<size_t>(a)] !=
        scratch.edge_hashes[static_cast<size_t>(b)]) {
      return scratch.edge_hashes[static_cast<size_t>(a)] <
             scratch.edge_hashes[static_cast<size_t>(b)];
    }
    auto [ab, ae] = edge_pins_of(a);
    auto [bb, be] = edge_pins_of(b);
    if (std::lexicographical_compare(ab, ae, bb, be)) {
      return true;
    }
    if (std::lexicographical_compare(bb, be, ab, ae)) {
      return false;
    }
    return a < b;
  };
  // Parallel dedup sort: fixed-size runs (boundaries depend only on the edge count and
  // grain, never the pool size) are sorted on the pool, then merged in a deterministic
  // binary tree whose same-level merges touch disjoint ranges and run in parallel.
  const size_t kept_sz = static_cast<size_t>(kept);
  const size_t sort_grain = grain * 4;  // Edges outnumber vertices; coarser chunks.
  GlobalThreadPool().ParallelFor(kept_sz, sort_grain,
                                 [&](size_t begin, size_t end, size_t) {
                                   std::sort(scratch.edge_order.begin() +
                                                 static_cast<int64_t>(begin),
                                             scratch.edge_order.begin() +
                                                 static_cast<int64_t>(end),
                                             edge_less);
                                 });
  for (size_t width = sort_grain; width < kept_sz; width *= 2) {
    std::vector<std::function<void()>> merges;
    for (size_t lo = 0; lo + width < kept_sz; lo += 2 * width) {
      const size_t mid = lo + width;
      const size_t hi = std::min(lo + 2 * width, kept_sz);
      merges.push_back([lo, mid, hi, &scratch, &edge_less] {
        std::inplace_merge(scratch.edge_order.begin() + static_cast<int64_t>(lo),
                           scratch.edge_order.begin() + static_cast<int64_t>(mid),
                           scratch.edge_order.begin() + static_cast<int64_t>(hi),
                           edge_less);
      });
    }
    if (!merges.empty()) {
      GlobalThreadPool().ParallelInvoke(std::move(merges));
    }
  }
  std::vector<double> run_weights;
  for (int32_t i = 0; i < kept;) {
    auto [pb, pe] = edge_pins_of(scratch.edge_order[static_cast<size_t>(i)]);
    int32_t j = i + 1;
    for (; j < kept; ++j) {
      auto [qb, qe] = edge_pins_of(scratch.edge_order[static_cast<size_t>(j)]);
      if (pe - pb != qe - qb || !std::equal(pb, pe, qb)) {
        break;
      }
    }
    // Sum the run's weights in ascending VALUE order: canonical regardless of how the
    // duplicates were ordered in the fine graph, so the coarse weight (and everything
    // the partitioner derives from it) is a pure function of the edge multiset.
    run_weights.clear();
    for (int32_t r = i; r < j; ++r) {
      run_weights.push_back(scratch.edge_weights[static_cast<size_t>(
          scratch.edge_order[static_cast<size_t>(r)])]);
    }
    std::sort(run_weights.begin(), run_weights.end());
    double weight = 0.0;
    for (double w : run_weights) {
      weight += w;
    }
    level.coarse.AddEdge(weight, std::span<const VertexId>(pb, pe));
    i = j;
  }
  level.coarse.Finalize();
  return level;
}

}  // namespace dcp
