// The DCP session engine: the one object a training job constructs per (cluster,
// configuration) pair. It owns what the free-function facade used to scatter across
// callers — the planner options, the look-ahead thread pool, and one LRU cache of
// compiled plans keyed by PlanSignature — and hands plans out as shared immutable
// handles, so repeated batches (dataset buckets recur constantly in production traffic)
// skip planning entirely and flow through the lookahead queue and the executor without
// deep copies.
//
//   Engine engine(cluster, options);
//   StatusOr<PlanHandle> plan = engine.Plan(seqlens, mask_spec);   // cache hit: O(hash)
//   executor.Prepare(plan.value());                                // reuses buffers when
//                                                                  // the signature matches
//
// User-input errors (empty batches, bad block sizes, malformed cluster shapes) come back
// as recoverable Status values; internal planner invariants still DCP_CHECK.
#ifndef DCP_CORE_ENGINE_H_
#define DCP_CORE_ENGINE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/plan_signature.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "core/signature_lru.h"
#include "masks/mask.h"
#include "runtime/cluster.h"
#include "runtime/instructions.h"

namespace dcp {

// An immutable compiled plan: the instruction streams plus the materialized masks they
// were planned against and the signature that identifies both. Shared by the cache, the
// lookahead queue, and the executor. The public fields are never mutated after
// construction; the one later write is the PlanStore record, encoded once on first use.
struct CompiledPlan {
  PlanSignature signature;
  BatchPlan plan;
  std::vector<SequenceMask> masks;

  // PlanStore::EncodeRecord(signature, plan), encoded on the first call and shared by
  // every later one: the planning service writes these bytes to the wire without a
  // copy, and they live exactly as long as the handle. Thread-safe.
  const std::shared_ptr<const std::string>& Record() const;

 private:
  mutable std::once_flag record_once_;
  mutable std::shared_ptr<const std::string> record_;
};

using PlanHandle = std::shared_ptr<const CompiledPlan>;

// Where a served plan came from, for callers (the planning service, benches) that
// need to distinguish the cache tiers without poking at counters.
enum class PlanOrigin {
  kFresh = 0,     // The planner ran.
  kMemoryCache,   // Served from the in-memory LRU.
  kStoreCache,    // Served from the persistent plan store.
};

// The planning interface shared by the in-process Engine and the remote PlanClient
// (src/service/plan_client.h): hand a DcpDataLoader a Planner and it neither knows nor
// cares whether plans come from a local planner thread or a planning service across the
// network — the handles are bit-identical either way.
class Planner {
 public:
  virtual ~Planner() = default;

  // Plans `seqlens` under `mask_spec` with the session's block-size policy: a fixed
  // block size, or a per-signature auto-tuned one when enabled. For a remote planner
  // the policy is the tenant's.
  virtual StatusOr<PlanHandle> Plan(const std::vector<int64_t>& seqlens,
                                    const MaskSpec& mask_spec) = 0;
  // The pool look-ahead planning is scheduled on (paper §6.1 overlap).
  virtual ThreadPool& pool() = 0;
};

struct EngineOptions {
  PlannerOptions planner;
  // Threads for look-ahead planning (the paper's §6.1 overlap); the partitioner
  // portfolio inside each PlanBatch additionally fans out on the global pool.
  int planner_threads = 2;
  // Cached plans (exact bound); 0 disables caching entirely.
  int plan_cache_capacity = 64;
  // Bound on AutoTune's per-signature winner table (tiny entries, but long-running
  // sessions with churning batch shapes must not grow without limit).
  int tune_cache_capacity = 1024;
  // When set, Plan tunes the block size per batch signature instead of using
  // planner.block_size verbatim (paper §7.1's search, amortized by the tune cache).
  bool auto_tune_block_size = false;
  std::vector<int64_t> tune_block_sizes = {512, 1024, 2048, 4096};
  // When non-empty, a PlanStore directory backing the in-memory cache across process
  // restarts: the signature index is warm-loaded at construction, cache misses consult
  // the store before planning (a disk hit skips the planner entirely and is counted in
  // store_hits), and fresh plans plus LRU evictions write through atomically. Corrupt or
  // truncated records are counted, skipped, and replanned around — never fatal. If the
  // directory cannot be opened the engine runs store-less; see store_status().
  std::string plan_store_path;
  // When non-empty, every instrument this engine registers carries
  // tenant="<metrics_tenant>" so a process hosting many engines (the planning
  // service) scrapes them apart. Unlabeled engines' series merge in the scrape.
  std::string metrics_tenant;
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
  int64_t tune_hits = 0;    // AutoTune served from the per-signature winner table.
  int64_t tune_misses = 0;  // AutoTune that ran the full block-size search.
  // Plan-store (cross-process persistence) counters; all zero when no store is attached.
  int64_t store_hits = 0;            // Cache misses served from disk instead of planning.
  int64_t store_writes = 0;          // Records written through (fresh plans + evictions).
  int64_t store_corrupt_skipped = 0; // Records that failed validation and were skipped.

  double HitRate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct AutoTuneResult {
  PlanHandle plan;
  int64_t best_block_size = 0;
  // Simulated fw+bw seconds of the winner; 0 when served from the tune cache without
  // re-simulating.
  double best_fwbw_seconds = 0.0;
  // (block size, simulated seconds) per candidate; empty when served from the cache.
  std::vector<std::pair<int64_t, double>> candidates;
  bool tuned_from_cache = false;
  // Which tier served the winning plan (a cached tune winner is usually also a
  // plan-cache hit).
  PlanOrigin plan_origin = PlanOrigin::kFresh;
};

// Validates one planning request's user inputs. Exposed for front ends (dcpctl) that
// want to report errors before constructing an Engine. Seqlens are a span (vectors
// convert implicitly) so the planning service can validate straight out of a
// decoded request view without copying.
Status ValidatePlanRequest(std::span<const int64_t> seqlens, const MaskSpec& mask_spec,
                           const ClusterSpec& cluster, const PlannerOptions& options);
// Braced-list convenience (std::span gains this constructor only in C++26).
inline Status ValidatePlanRequest(std::initializer_list<int64_t> seqlens,
                                  const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                  const PlannerOptions& options) {
  return ValidatePlanRequest(std::span<const int64_t>(seqlens.begin(), seqlens.size()),
                             mask_spec, cluster, options);
}

class Engine : public Planner {
 public:
  Engine(ClusterSpec cluster, EngineOptions options);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Plans `seqlens` under `mask_spec` with the engine's block-size policy:
  // options().planner.block_size, or AutoTune's winner when
  // options().auto_tune_block_size is set. Cache hits return the previously compiled
  // handle without touching the planner.
  StatusOr<PlanHandle> Plan(const std::vector<int64_t>& seqlens,
                            const MaskSpec& mask_spec) override;
  // Same, at an explicit block size, or with the policy when `block_size` is 0 (the
  // planning service passes the request's). When `origin` is non-null it reports which
  // tier served the plan. Takes a span so the cache-hit path (signature hash + LRU
  // lookup) runs without materializing a seqlens vector; the seqlens are only copied
  // when the request actually misses to the planner.
  StatusOr<PlanHandle> PlanWithBlockSize(std::span<const int64_t> seqlens,
                                         const MaskSpec& mask_spec, int64_t block_size,
                                         PlanOrigin* origin = nullptr);
  StatusOr<PlanHandle> PlanWithBlockSize(std::initializer_list<int64_t> seqlens,
                                         const MaskSpec& mask_spec, int64_t block_size,
                                         PlanOrigin* origin = nullptr) {
    return PlanWithBlockSize(std::span<const int64_t>(seqlens.begin(), seqlens.size()),
                             mask_spec, block_size, origin);
  }

  // The paper's block-size search, cached per tune signature: the first sight of a batch
  // shape plans every candidate and prices it on the simulator; later sightings reuse
  // the recorded winner (usually a plan-cache hit as well).
  StatusOr<AutoTuneResult> AutoTune(std::span<const int64_t> seqlens,
                                    const MaskSpec& mask_spec);
  StatusOr<AutoTuneResult> AutoTune(std::initializer_list<int64_t> seqlens,
                                    const MaskSpec& mask_spec) {
    return AutoTune(std::span<const int64_t>(seqlens.begin(), seqlens.size()),
                    mask_spec);
  }

  const ClusterSpec& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }
  // The engine-owned pool the data loader schedules look-ahead planning on.
  ThreadPool& pool() override { return *pool_; }

  // A snapshot of every compiled plan currently in the in-memory LRU, most recently
  // used first. The planning service's anti-entropy gossip enumerates this to learn
  // what the replica can ship; handles are immutable, so the snapshot stays valid
  // however the cache churns afterwards.
  std::vector<PlanHandle> CachedPlans() const;

  // The canonical signature PlanWithBlockSize would assign to this request (block_size
  // 0: the engine's fixed block size). Returns the validation error on malformed
  // input, and FAILED_PRECONDITION for block_size 0 under auto-tune, where the
  // signature depends on the tuning search.
  StatusOr<PlanSignature> RequestSignature(std::span<const int64_t> seqlens,
                                           const MaskSpec& mask_spec,
                                           int64_t block_size = 0) const;

  // A coherent snapshot of every counter: the cache counters are bumped and read under
  // cache_mu_, so concurrent Plan() callers (service worker threads) can never make
  // `hits + misses` disagree with the number of completed lookups, and `entries`
  // always matches a real instant of the cache.
  PlanCacheStats cache_stats() const;
  void ClearCache();

  // The attached plan store, or nullptr when plan_store_path is empty / failed to open.
  PlanStore* plan_store() const { return store_.get(); }
  // OK when no store was requested or it opened cleanly; the open error otherwise (the
  // engine still works, it just plans cold).
  const Status& store_status() const { return store_status_; }

  // The engine's child metrics registry (attached to metrics::Registry::Global()
  // for the process scrape; labeled with options().metrics_tenant when set).
  // PlanCacheStats is a thin view over counters registered here.
  metrics::Registry* metrics_registry() const { return metrics_.get(); }

 private:
  // Returns the cached handle and records a hit, or nullptr and records a miss.
  PlanHandle CacheLookup(const PlanSignature& sig);
  // Inserts `handle`, evicting LRU entries over capacity. If another thread planted the
  // same signature first, returns the incumbent so equal signatures share one handle.
  // Evicted handles are appended to `evicted` (when non-null) so the caller can write
  // them through to the store outside cache_mu_.
  PlanHandle CacheInsert(PlanHandle handle, std::vector<PlanHandle>* evicted = nullptr);
  // CacheInsert + store write-through for the fresh plan and any evictions.
  PlanHandle InsertAndPersist(std::shared_ptr<CompiledPlan> compiled);
  // Consults the plan store for `sig` on a cache miss; returns nullptr when there is no
  // store, the record is absent, or it failed validation (counted inside the store).
  PlanHandle StoreLookup(const PlanSignature& sig, std::span<const int64_t> seqlens,
                         const MaskSpec& mask_spec);

  ClusterSpec cluster_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  // Child registry holding every instrument below; created before the store so
  // its instrument pointers can be resolved at construction.
  std::shared_ptr<metrics::Registry> metrics_;
  metrics::Histogram* plan_latency_us_ = nullptr;  // Fresh-plan (miss) latency.
  metrics::Histogram* tune_latency_us_ = nullptr;  // Full block-size searches.
  // Hit-path timing sampler: a clock pair on every ~0.4us cache hit would blow
  // the observability overhead budget, so only 1 in 16 untraced hits is timed.
  std::atomic<uint64_t> probe_ticker_{0};

  mutable Mutex cache_mu_;
  SignatureLru<PlanHandle> cache_ DCP_GUARDED_BY(cache_mu_);
  // Registry-backed counters (PlanCacheStats is a view over them). The pointers are
  // immutable after construction; every Add() and Set() happens with cache_mu_ held,
  // so cache_stats() reads one instant of the cache even though the storage is atomic.
  metrics::Counter* cache_hits_ = nullptr;
  metrics::Counter* cache_misses_ = nullptr;
  metrics::Counter* cache_evictions_ = nullptr;
  metrics::Gauge* cache_entries_ = nullptr;  // cache_.size().
  // Sampled (1 in 16) end-to-end hit latency: signature hash + LRU probe.
  metrics::Histogram* cache_hit_latency_us_ = nullptr;

  std::unique_ptr<PlanStore> store_;
  Status store_status_;

  // AutoTune winner table: LRU-bounded by tune_cache_capacity.
  mutable Mutex tune_mu_;
  SignatureLru<int64_t> tune_lru_ DCP_GUARDED_BY(tune_mu_);
  // Registry-backed (see the cache counters): bumped with tune_mu_ held.
  metrics::Counter* tune_hits_ = nullptr;
  metrics::Counter* tune_misses_ = nullptr;
};

}  // namespace dcp

#endif  // DCP_CORE_ENGINE_H_
