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

const std::shared_ptr<const std::string>& CompiledPlan::Record() const {
  std::call_once(record_once_, [this] {
    metrics::ScopedPhase encode_phase(metrics::TracePhase::kEncode);
    record_ = std::make_shared<const std::string>(
        PlanStore::EncodeRecord(signature, plan));
  });
  return record_;
}

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
    : cluster_(cluster),
      options_(std::move(options)),
      cache_(options_.plan_cache_capacity),
      tune_lru_(options_.tune_cache_capacity) {
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
  cache_hits_ =
      metrics_->GetCounter("dcp_engine_cache_hits_total", {}, "Plan cache hits");
  cache_misses_ =
      metrics_->GetCounter("dcp_engine_cache_misses_total", {}, "Plan cache misses");
  cache_evictions_ = metrics_->GetCounter("dcp_engine_cache_evictions_total", {},
                                          "Plan cache LRU evictions");
  cache_entries_ = metrics_->GetGauge("dcp_engine_cache_entries", {},
                                      "Plans resident in the LRU");
  cache_hit_latency_us_ = metrics_->GetHistogram(
      "dcp_engine_cache_hit_latency_us", {},
      "Signature + probe latency on the hit path (sampled 1 in 16 when untraced)");
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
}

Engine::~Engine() = default;

PlanHandle Engine::CacheLookup(const PlanSignature& sig) {
  MutexLock lock(cache_mu_);
  PlanHandle* cached = cache_.Find(sig);
  if (cached == nullptr) {
    // Counted even with caching disabled so cache_stats() reports the true cold-plan
    // rate instead of pretending the cache saw no traffic.
    cache_misses_->Increment();
    return nullptr;
  }
  cache_hits_->Increment();
  return *cached;
}

PlanHandle Engine::CacheInsert(PlanHandle handle, std::vector<PlanHandle>* evicted) {
  // Declared before the lock so handles nobody asked for are released outside it.
  std::vector<PlanHandle> dropped;
  if (evicted == nullptr) {
    evicted = &dropped;
  }
  const size_t evicted_before = evicted->size();
  MutexLock lock(cache_mu_);
  // A concurrent miss may have planned the same signature; Insert keeps the incumbent
  // so callers that raced still end up sharing one immutable plan.
  const PlanSignature sig = handle->signature;
  PlanHandle resident = cache_.Insert(sig, std::move(handle), evicted);
  cache_evictions_->Add(static_cast<int64_t>(evicted->size() - evicted_before));
  cache_entries_->Set(static_cast<int64_t>(cache_.size()));
  return resident;
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
  // reached disk — both outside cache_mu_. Write failures are non-fatal: the store
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
  return PlanWithBlockSize(seqlens, mask_spec, /*block_size=*/0);
}

StatusOr<PlanHandle> Engine::PlanWithBlockSize(std::span<const int64_t> seqlens,
                                               const MaskSpec& mask_spec,
                                               int64_t block_size, PlanOrigin* origin) {
  if (block_size == 0) {
    if (options_.auto_tune_block_size) {
      StatusOr<AutoTuneResult> tuned = AutoTune(seqlens, mask_spec);
      if (!tuned.ok()) {
        return tuned.status();
      }
      if (origin != nullptr) {
        *origin = tuned.value().plan_origin;
      }
      return tuned.value().plan;
    }
    block_size = options_.planner.block_size;
  }
  PlannerOptions planner = options_.planner;
  planner.block_size = block_size;
  DCP_RETURN_IF_ERROR(ValidatePlanRequest(seqlens, mask_spec, cluster_, planner));

  // The repeat-batch hit path runs in well under a microsecond, so even one clock
  // read per request is measurable. Counters stay exact and always-on (a single
  // fetch_add under cache_mu_); latency is timed for every traced request but
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
      cache_hit_latency_us_->Record(probe_us);
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
  MutexLock lock(cache_mu_);
  cache_.ForEach([&plans](const PlanSignature&, const PlanHandle& handle) {
    plans.push_back(handle);
  });
  return plans;
}

StatusOr<PlanSignature> Engine::RequestSignature(std::span<const int64_t> seqlens,
                                                 const MaskSpec& mask_spec,
                                                 int64_t block_size) const {
  if (block_size == 0 && options_.auto_tune_block_size) {
    return Status::FailedPrecondition(
        "an auto-tuned request's signature is known only after tuning");
  }
  PlannerOptions planner = options_.planner;
  if (block_size != 0) {
    planner.block_size = block_size;
  }
  DCP_RETURN_IF_ERROR(ValidatePlanRequest(seqlens, mask_spec, cluster_, planner));
  return ComputePlanSignature(seqlens, mask_spec, cluster_, planner);
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
    if (const int64_t* winner = tune_lru_.Find(tune_sig)) {
      tune_hits_->Increment();
      known_winner = *winner;
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

  {
    MutexLock lock(tune_mu_);
    tune_lru_.Insert(tune_sig, search.best_block_size);
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

PlanCacheStats Engine::cache_stats() const {
  PlanCacheStats stats;
  {
    MutexLock lock(cache_mu_);
    stats.hits = cache_hits_->value();
    stats.misses = cache_misses_->value();
    stats.evictions = cache_evictions_->value();
    stats.entries = cache_entries_->value();
  }
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
  {
    MutexLock lock(cache_mu_);
    cache_.Clear();
    cache_entries_->Set(0);
  }
  MutexLock lock(tune_mu_);
  tune_lru_.Clear();
}

}  // namespace dcp
