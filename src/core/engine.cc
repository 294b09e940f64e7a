#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/check.h"

namespace dcp {
namespace {

std::string BadField(const char* what, int64_t value) {
  return std::string(what) + " (got " + std::to_string(value) + ")";
}

}  // namespace

Status ValidatePlanRequest(std::span<const int64_t> seqlens, const MaskSpec& mask_spec,
                           const ClusterSpec& cluster, const PlannerOptions& options) {
  if (seqlens.empty()) {
    return Status::InvalidArgument("seqlens must be non-empty");
  }
  for (size_t s = 0; s < seqlens.size(); ++s) {
    if (seqlens[s] <= 0) {
      return Status::InvalidArgument("seqlens[" + std::to_string(s) +
                                     "] must be positive (got " +
                                     std::to_string(seqlens[s]) + ")");
    }
  }
  if (cluster.num_nodes <= 0) {
    return Status::InvalidArgument(BadField("cluster.num_nodes must be positive",
                                            cluster.num_nodes));
  }
  if (cluster.devices_per_node <= 0) {
    return Status::InvalidArgument(BadField("cluster.devices_per_node must be positive",
                                            cluster.devices_per_node));
  }
  if (options.block_size <= 0) {
    return Status::InvalidArgument(BadField("block_size must be positive",
                                            options.block_size));
  }
  if (options.num_groups <= 0) {
    return Status::InvalidArgument(BadField("num_groups must be positive",
                                            options.num_groups));
  }
  if (options.heads_per_group <= 0) {
    return Status::InvalidArgument(BadField("heads_per_group must be positive",
                                            options.heads_per_group));
  }
  if (options.head_dim <= 0) {
    return Status::InvalidArgument(BadField("head_dim must be positive",
                                            options.head_dim));
  }
  if (options.bytes_per_element <= 0) {
    return Status::InvalidArgument(BadField("bytes_per_element must be positive",
                                            options.bytes_per_element));
  }
  if (options.divisions <= 0) {
    return Status::InvalidArgument(BadField("divisions must be positive",
                                            options.divisions));
  }
  switch (mask_spec.kind) {
    case MaskKind::kCausal:
      break;
    case MaskKind::kLambda:
      if (mask_spec.sink_tokens < 0) {
        return Status::InvalidArgument(BadField("lambda sink_tokens must be >= 0",
                                                mask_spec.sink_tokens));
      }
      if (mask_spec.window_tokens <= 0) {
        return Status::InvalidArgument(BadField("lambda window_tokens must be positive",
                                                mask_spec.window_tokens));
      }
      break;
    case MaskKind::kCausalBlockwise:
      if (mask_spec.icl_block_tokens <= 0) {
        return Status::InvalidArgument(BadField("icl_block_tokens must be positive",
                                                mask_spec.icl_block_tokens));
      }
      if (mask_spec.window_blocks < 0 || mask_spec.sink_blocks < 0 ||
          mask_spec.test_blocks < 0) {
        return Status::InvalidArgument("blockwise window/sink/test block counts must be >= 0");
      }
      break;
    case MaskKind::kSharedQuestion:
      if (mask_spec.num_answers <= 0) {
        return Status::InvalidArgument(BadField("shared-question num_answers must be positive",
                                                mask_spec.num_answers));
      }
      // NaN fails every ordered comparison, so finiteness is checked first.
      if (!std::isfinite(mask_spec.answer_fraction) || mask_spec.answer_fraction <= 0.0 ||
          mask_spec.answer_fraction * mask_spec.num_answers >= 1.0 + 1e-9) {
        return Status::InvalidArgument(
            "shared-question answer_fraction must be in (0, 1/num_answers]");
      }
      break;
  }
  return Status::Ok();
}

Engine::Engine(ClusterSpec cluster, EngineOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  DCP_CHECK_GE(options_.plan_cache_capacity, 0);
  DCP_CHECK_GE(options_.tune_cache_capacity, 0);
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.planner_threads));
  metrics_ = metrics::Registry::NewAttached(
      options_.metrics_tenant.empty()
          ? std::vector<metrics::Label>{}
          : std::vector<metrics::Label>{{"tenant", options_.metrics_tenant}});
  plan_latency_us_ = metrics_->GetHistogram(
      "dcp_engine_plan_latency_us", {},
      "Fresh-plan latency (cache and store both missed)");
  tune_latency_us_ = metrics_->GetHistogram(
      "dcp_engine_tune_latency_us", {}, "Full block-size search latency");
  tune_hits_ = metrics_->GetCounter("dcp_engine_tune_hits_total", {},
                                    "Auto-tune winner cache hits");
  tune_misses_ = metrics_->GetCounter("dcp_engine_tune_misses_total", {},
                                      "Auto-tune winner cache misses");
  if (!options_.plan_store_path.empty()) {
    StatusOr<std::unique_ptr<PlanStore>> store =
        PlanStore::Open(options_.plan_store_path, metrics_.get());
    if (store.ok()) {
      store_ = std::move(store).value();
    } else {
      // An unusable warm-start directory must not kill a training job: degrade to
      // store-less planning, keep the error observable.
      store_status_ = store.status();
      std::fprintf(stderr, "dcp::Engine: plan store disabled: %s\n",
                   store_status_.ToString().c_str());
    }
  }
  // Never more shards than capacity: a zero-capacity shard would silently refuse to
  // cache the signatures hashing into it.
  const int shards = std::max(
      1, std::min(options_.plan_cache_shards, std::max(1, options_.plan_cache_capacity)));
  shards_.reserve(static_cast<size_t>(shards));
  // Distribute the capacity exactly: the shard sum equals plan_cache_capacity, so the
  // configured bound is never overshot (the first `capacity % shards` shards take the
  // remainder).
  const int64_t base = options_.plan_cache_capacity / shards;
  const int64_t remainder = options_.plan_cache_capacity % shards;
  for (int s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (s < remainder ? 1 : 0);
    const std::vector<metrics::Label> labels = {{"shard", std::to_string(s)}};
    shard->hits = metrics_->GetCounter("dcp_engine_cache_hits_total", labels,
                                       "Plan cache hits");
    shard->misses = metrics_->GetCounter("dcp_engine_cache_misses_total", labels,
                                         "Plan cache misses");
    shard->evictions = metrics_->GetCounter("dcp_engine_cache_evictions_total", labels,
                                            "Plan cache LRU evictions");
    shard->hit_latency_us = metrics_->GetHistogram(
        "dcp_engine_cache_hit_latency_us", labels,
        "Signature + probe latency on the hit path (sampled 1 in 16 when untraced)");
    shards_.push_back(std::move(shard));
  }
}

Engine::~Engine() = default;

Engine::Shard& Engine::ShardFor(const PlanSignature& sig) {
  return *shards_[static_cast<size_t>(sig.lo % shards_.size())];
}

PlanHandle Engine::CacheLookup(const PlanSignature& sig) {
  Shard& shard = ShardFor(sig);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(sig);
  if (it == shard.index.end()) {
    // Counted even with caching disabled so cache_stats() reports the true cold-plan
    // rate instead of pretending the cache saw no traffic.
    shard.misses->Increment();
    return nullptr;
  }
  shard.hits->Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // Move to front.
  return *it->second;
}

PlanHandle Engine::CacheInsert(PlanHandle handle, std::vector<PlanHandle>* evicted) {
  Shard& shard = ShardFor(handle->signature);
  MutexLock lock(shard.mu);
  if (shard.capacity == 0) {
    return handle;
  }
  auto it = shard.index.find(handle->signature);
  if (it != shard.index.end()) {
    // A concurrent miss planned the same signature; keep the incumbent so callers that
    // raced still end up sharing one immutable plan.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return *it->second;
  }
  shard.lru.push_front(handle);
  shard.index.emplace(handle->signature, shard.lru.begin());
  while (static_cast<int64_t>(shard.lru.size()) > shard.capacity) {
    if (evicted != nullptr) {
      evicted->push_back(shard.lru.back());
    }
    shard.index.erase(shard.lru.back()->signature);
    shard.lru.pop_back();
    shard.evictions->Increment();
  }
  return handle;
}

PlanHandle Engine::InsertAndPersist(std::shared_ptr<CompiledPlan> compiled) {
  const CompiledPlan* fresh = compiled.get();
  std::vector<PlanHandle> evicted;
  PlanHandle inserted = CacheInsert(std::move(compiled), store_ ? &evicted : nullptr);
  if (store_ == nullptr) {
    return inserted;
  }
  // Write through the fresh plan (only if we won any insert race: the incumbent was
  // already persisted by whoever planted it) and any LRU evictions that somehow never
  // reached disk — both outside the shard lock. Write failures are non-fatal: the store
  // is an accelerator, not a source of truth.
  if (inserted.get() == fresh && !store_->Contains(inserted->signature)) {
    (void)store_->Put(inserted->signature, inserted->plan);
  }
  for (const PlanHandle& handle : evicted) {
    if (!store_->Contains(handle->signature)) {
      (void)store_->Put(handle->signature, handle->plan);
    }
  }
  return inserted;
}

PlanHandle Engine::StoreLookup(const PlanSignature& sig,
                               std::span<const int64_t> seqlens,
                               const MaskSpec& mask_spec) {
  if (store_ == nullptr) {
    return nullptr;
  }
  metrics::ScopedPhase phase(metrics::TracePhase::kStoreRead);
  StatusOr<BatchPlan> loaded = store_->Load(sig);
  if (!loaded.ok()) {
    // Absent signature (NOT_FOUND, uncounted) or a corrupt/truncated/vanished record
    // (counted by the store): either way we replan.
    return nullptr;
  }
  auto compiled = std::make_shared<CompiledPlan>();
  compiled->signature = sig;
  compiled->plan = std::move(loaded).value();
  // Masks are derived, not persisted: rebuilding them is O(mask segments) — a handful
  // per sequence — while planning is not. This is the one disk-hit-path copy of the
  // seqlens; the memory-hit path above never materializes them.
  const std::vector<int64_t> owned(seqlens.begin(), seqlens.end());
  compiled->masks = BuildBatchMasks(mask_spec, owned);
  return CacheInsert(std::move(compiled));
}

StatusOr<PlanHandle> Engine::Plan(const std::vector<int64_t>& seqlens,
                                  const MaskSpec& mask_spec) {
  return PlanWithBlockSize(seqlens, mask_spec, options_.planner.block_size);
}

StatusOr<PlanHandle> Engine::PlanWithBlockSize(std::span<const int64_t> seqlens,
                                               const MaskSpec& mask_spec,
                                               int64_t block_size, PlanOrigin* origin) {
  PlannerOptions planner = options_.planner;
  planner.block_size = block_size;
  DCP_RETURN_IF_ERROR(ValidatePlanRequest(seqlens, mask_spec, cluster_, planner));

  // The repeat-batch hit path runs in well under a microsecond, so even one clock
  // read per request is measurable. Counters stay exact and always-on (a single
  // fetch_add under the shard lock); latency is timed for every traced request but
  // only 1 in 16 of the untraced ones — a histogram sample rate, not a data loss.
  metrics::Trace* trace = metrics::TraceContext::Current();
  const bool timed =
      trace != nullptr ||
      (metrics::RecordingEnabled() &&
       (probe_ticker_.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0);
  const int64_t probe_start_ns = timed ? metrics::MonotonicNanos() : 0;

  const PlanSignature sig = ComputePlanSignature(seqlens, mask_spec, cluster_, planner);
  if (PlanHandle cached = CacheLookup(sig)) {
    if (timed) {
      const int64_t probe_us = (metrics::MonotonicNanos() - probe_start_ns) / 1000;
      metrics::RecordPhase(metrics::TracePhase::kCacheProbe, probe_us);
      ShardFor(sig).hit_latency_us->Record(probe_us);
    }
    if (origin != nullptr) {
      *origin = PlanOrigin::kMemoryCache;
    }
    return cached;
  }
  if (timed) {
    metrics::RecordPhase(metrics::TracePhase::kCacheProbe,
                         (metrics::MonotonicNanos() - probe_start_ns) / 1000);
  }
  if (PlanHandle stored = StoreLookup(sig, seqlens, mask_spec)) {
    if (origin != nullptr) {
      *origin = PlanOrigin::kStoreCache;
    }
    return stored;
  }

  if (origin != nullptr) {
    *origin = PlanOrigin::kFresh;
  }
  // Materialize only on the fresh-plan path: next to the planner, one vector copy is
  // noise, while the hit path above stays copy-free.
  const std::vector<int64_t> owned(seqlens.begin(), seqlens.end());
  auto compiled = std::make_shared<CompiledPlan>();
  compiled->signature = sig;
  compiled->masks = BuildBatchMasks(mask_spec, owned);
  {
    metrics::ScopedLatencyTimer plan_timer(plan_latency_us_);
    compiled->plan = PlanBatch(owned, compiled->masks, cluster_, planner);
  }
  return InsertAndPersist(std::move(compiled));
}

std::vector<PlanHandle> Engine::CachedPlans() const {
  std::vector<PlanHandle> plans;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const PlanHandle& handle : shard->lru) {
      plans.push_back(handle);
    }
  }
  return plans;
}

StatusOr<PlanSignature> Engine::RequestSignature(std::span<const int64_t> seqlens,
                                                 const MaskSpec& mask_spec,
                                                 int64_t block_size) const {
  PlannerOptions planner = options_.planner;
  if (block_size != 0) {
    planner.block_size = block_size;
  }
  DCP_RETURN_IF_ERROR(ValidatePlanRequest(seqlens, mask_spec, cluster_, planner));
  return ComputePlanSignature(seqlens, mask_spec, cluster_, planner);
}

StatusOr<Engine::PlannedOutcome> Engine::PlanDetailed(std::span<const int64_t> seqlens,
                                                      const MaskSpec& mask_spec,
                                                      int64_t block_size) {
  PlannedOutcome outcome;
  if (block_size == 0 && options_.auto_tune_block_size) {
    StatusOr<AutoTuneResult> tuned = AutoTune(seqlens, mask_spec);
    if (!tuned.ok()) {
      return tuned.status();
    }
    outcome.handle = tuned.value().plan;
    outcome.origin = tuned.value().plan_origin;
    return outcome;
  }
  const int64_t block = block_size == 0 ? options_.planner.block_size : block_size;
  StatusOr<PlanHandle> plan =
      PlanWithBlockSize(seqlens, mask_spec, block, &outcome.origin);
  if (!plan.ok()) {
    return plan.status();
  }
  outcome.handle = std::move(plan).value();
  return outcome;
}

StatusOr<AutoTuneResult> Engine::AutoTune(std::span<const int64_t> seqlens,
                                          const MaskSpec& mask_spec) {
  if (options_.tune_block_sizes.empty()) {
    return Status::FailedPrecondition("tune_block_sizes must be non-empty");
  }
  // Validate against the first candidate; per-candidate block sizes are validated again
  // inside PlanWithBlockSize.
  PlannerOptions probe = options_.planner;
  probe.block_size = options_.tune_block_sizes.front();
  DCP_RETURN_IF_ERROR(ValidatePlanRequest(seqlens, mask_spec, cluster_, probe));
  for (int64_t candidate : options_.tune_block_sizes) {
    if (candidate <= 0) {
      return Status::InvalidArgument("tune_block_sizes entries must be positive (got " +
                                     std::to_string(candidate) + ")");
    }
  }

  const PlanSignature tune_sig = ComputeTuneSignature(
      seqlens, mask_spec, cluster_, options_.planner, options_.tune_block_sizes);
  int64_t known_winner = 0;
  {
    MutexLock lock(tune_mu_);
    auto it = tune_index_.find(tune_sig);
    if (it != tune_index_.end()) {
      tune_hits_->Increment();
      tune_lru_.splice(tune_lru_.begin(), tune_lru_, it->second);
      known_winner = it->second->second;
    } else {
      tune_misses_->Increment();
    }
  }
  if (known_winner > 0) {
    // Replanning at the recorded winner is usually a plan-cache hit; done outside the
    // tune lock so a cold replan never serializes other tuners.
    PlanOrigin origin = PlanOrigin::kFresh;
    StatusOr<PlanHandle> plan =
        PlanWithBlockSize(seqlens, mask_spec, known_winner, &origin);
    if (!plan.ok()) {
      return plan.status();
    }
    AutoTuneResult result;
    result.plan = plan.value();
    result.best_block_size = known_winner;
    result.tuned_from_cache = true;
    result.plan_origin = origin;
    return result;
  }

  // The search path plans every candidate; one seqlens copy is immaterial here (the
  // cached-winner path above never copies).
  const std::vector<int64_t> owned(seqlens.begin(), seqlens.end());
  std::vector<SequenceMask> masks = BuildBatchMasks(mask_spec, owned);
  BlockSizeSearchResult search;
  {
    metrics::ScopedLatencyTimer tune_timer(tune_latency_us_);
    search = SearchBlockSize(owned, masks, cluster_, options_.planner,
                             options_.tune_block_sizes);
  }

  if (options_.tune_cache_capacity > 0) {
    MutexLock lock(tune_mu_);
    if (tune_index_.find(tune_sig) == tune_index_.end()) {
      tune_lru_.emplace_front(tune_sig, search.best_block_size);
      tune_index_.emplace(tune_sig, tune_lru_.begin());
      while (static_cast<int64_t>(tune_lru_.size()) > options_.tune_cache_capacity) {
        tune_index_.erase(tune_lru_.back().first);
        tune_lru_.pop_back();
      }
    }
  }

  PlannerOptions winner_options = options_.planner;
  winner_options.block_size = search.best_block_size;
  auto compiled = std::make_shared<CompiledPlan>();
  compiled->signature =
      ComputePlanSignature(seqlens, mask_spec, cluster_, winner_options);
  compiled->plan = std::move(search.best_plan);
  compiled->masks = std::move(masks);

  AutoTuneResult result;
  result.plan = InsertAndPersist(std::move(compiled));
  result.best_block_size = search.best_block_size;
  result.best_fwbw_seconds = search.best_fwbw_seconds;
  result.candidates = std::move(search.candidates);
  return result;
}

StatusOr<PlanHandle> Engine::PlanForLoader(const std::vector<int64_t>& seqlens,
                                           const MaskSpec& mask_spec) {
  if (!options_.auto_tune_block_size) {
    return Plan(seqlens, mask_spec);
  }
  StatusOr<AutoTuneResult> tuned = AutoTune(seqlens, mask_spec);
  if (!tuned.ok()) {
    return tuned.status();
  }
  return tuned.value().plan;
}

// NO_THREAD_SAFETY_ANALYSIS: acquiring every shard lock of a dynamically-sized vector
// for one coherent snapshot is beyond the analysis (it cannot name N capabilities at
// once); the locking pattern below is the proof the annotation would have demanded.
PlanCacheStats Engine::cache_stats() const DCP_NO_THREAD_SAFETY_ANALYSIS {
  PlanCacheStats stats;
  // Acquire every shard lock before reading any counter: a sequential shard-by-shard
  // walk lets a concurrent Plan() land a hit in an already-read shard and an insert in
  // a not-yet-read one, so the reported totals never corresponded to any real instant.
  // Service worker threads poll this concurrently with planners, so the snapshot must
  // be coherent. Deadlock-free: every other path locks at most one shard at a time.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // dcp-analyze: allow(lock-native): N-shard coherent snapshot (see above).
    locks.emplace_back(shard->mu.native());
  }
  for (const auto& shard : shards_) {
    stats.hits += shard->hits->value();
    stats.misses += shard->misses->value();
    stats.evictions += shard->evictions->value();
    stats.entries += static_cast<int64_t>(shard->lru.size());
  }
  locks.clear();
  {
    MutexLock lock(tune_mu_);
    stats.tune_hits = tune_hits_->value();
    stats.tune_misses = tune_misses_->value();
  }
  if (store_ != nullptr) {
    const PlanStoreStats store = store_->stats();
    stats.store_hits = store.hits;
    stats.store_writes = store.writes;
    stats.store_corrupt_skipped = store.corrupt_skipped;
  }
  return stats;
}

void Engine::ClearCache() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
  MutexLock lock(tune_mu_);
  tune_lru_.clear();
  tune_index_.clear();
}

}  // namespace dcp
