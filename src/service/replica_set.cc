#include "service/replica_set.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace dcp {
namespace {

int64_t NowMs() { return metrics::MonotonicMillis(); }

uint64_t HashAddress(const ServiceAddress& address) {
  uint64_t h = 0x646370722d616464ULL;  // "dcpr-add"
  for (char c : address.ToString()) {
    h = SplitMix64(h ^ static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  return h;
}

constexpr size_t kLatencyRingSize = 64;
// Below this many samples the p99 estimate is noise; hedge at the configured max.
constexpr size_t kMinLatencySamples = 8;

// Nearest-rank quantile over a scratch copy of the latency ring (reorders it).
int64_t QuantileMs(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = std::min(
      samples.size() - 1, static_cast<size_t>(static_cast<double>(samples.size()) * q));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

}  // namespace

bool ReplicaCooldown::Available(int64_t now_ms) const {
  return consecutive_failures_ == 0 || now_ms >= next_probe_ms_;
}

void ReplicaCooldown::RecordFailure(int64_t now_ms) {
  ++consecutive_failures_;
  if (consecutive_failures_ == 1) {
    backoff_ms_ = std::max(1, policy_.initial_ms);
  } else {
    const double next = static_cast<double>(backoff_ms_) *
                        std::max(1.0, policy_.multiplier);
    backoff_ms_ = std::min<int64_t>(static_cast<int64_t>(next),
                                    std::max(1, policy_.max_ms));
  }
  const int64_t quarter = std::max<int64_t>(1, backoff_ms_ / 4);
  const uint64_t draw =
      SplitMix64(policy_.jitter_seed ^ salt_ ^
                 static_cast<uint64_t>(consecutive_failures_)) %
      static_cast<uint64_t>(2 * quarter + 1);
  next_probe_ms_ = now_ms + backoff_ms_ - quarter + static_cast<int64_t>(draw);
}

void ReplicaCooldown::RecordSuccess() {
  consecutive_failures_ = 0;
  backoff_ms_ = 0;
  next_probe_ms_ = 0;
}

// One logical request's shared state: the main thread and every attempt thread it
// launched rendezvous here. Owned by shared_ptr so a slow loser attempt can finish
// after the main thread has already returned the winner.
struct ReplicaSet::HedgedCall {
  std::vector<int64_t> seqlens;
  MaskSpec mask_spec;
  int64_t block_size = 0;

  Mutex mu;
  CondVar cv;
  int launched DCP_GUARDED_BY(mu) = 0;
  int finished DCP_GUARDED_BY(mu) = 0;
  bool done DCP_GUARDED_BY(mu) = false;
  PlanHandle result DCP_GUARDED_BY(mu);  // Set by the first successful attempt.
  bool winner_was_hedge DCP_GUARDED_BY(mu) = false;
  // Non-retryable server rejection: stop everything.
  Status fatal DCP_GUARDED_BY(mu) = Status::Ok();
  // Most recent transport-level failure.
  Status last_error DCP_GUARDED_BY(mu) = Status::Ok();
};

// Count of attempt threads still running, shared so the last finisher may outlive the
// ReplicaSet object itself (the destructor waits for zero before tearing down, and the
// shared_ptr keeps this block alive regardless of destruction order).
struct ReplicaSet::Outstanding {
  Mutex mu;
  CondVar cv;
  int count DCP_GUARDED_BY(mu) = 0;
};

ReplicaSet::ReplicaSet(std::vector<ServiceAddress> addresses,
                       ReplicaSetOptions options)
    : options_(std::move(options)),
      outstanding_(std::make_shared<Outstanding>()),
      cache_(options_.cache_capacity) {
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.planner_threads));
  metrics_ = metrics::Registry::NewAttached(
      {{"tenant", options_.tenant}});
  const auto counter = [&](const char* name, const char* help) {
    return metrics_->GetCounter(name, {}, help);
  };
  counters_.requests = counter("dcp_replica_set_requests_total",
                               "Logical plan requests issued to the replica set.");
  counters_.cache_hits = counter("dcp_replica_set_cache_hits_total",
                                 "Requests served from the set's LRU without an RPC.");
  counters_.rpcs_sent = counter("dcp_replica_set_rpcs_sent_total",
                                "Attempts launched across all replicas.");
  counters_.failovers = counter("dcp_replica_set_failovers_total",
                                "Launches forced by a failed prior attempt.");
  counters_.hedges_sent = counter("dcp_replica_set_hedges_sent_total",
                                  "Hedge attempts fired after the p99 delay.");
  counters_.hedge_wins = counter("dcp_replica_set_hedge_wins_total",
                                 "Requests whose winning response came from a hedge.");
  counters_.hedge_waste = counter(
      "dcp_replica_set_hedge_waste_total",
      "Hedge attempts that finished without winning their request.");
  counters_.cooldowns_entered = counter("dcp_replica_set_cooldowns_entered_total",
                                        "Replica transitions into cooldown.");
  counters_.local_fallbacks = counter(
      "dcp_replica_set_local_fallbacks_total",
      "Requests planned by the in-process fallback engine.");
  replicas_.reserve(addresses.size());
  for (ServiceAddress& address : addresses) {
    auto replica = std::make_shared<Replica>();
    replica->address = std::move(address);
    replica->addr_hash = HashAddress(replica->address);
    replica->cooldown = ReplicaCooldown(options_.cooldown, replica->addr_hash);
    replica->rpc_latency_us = metrics_->GetHistogram(
        "dcp_replica_rpc_latency_us", {{"replica", replica->address.ToString()}},
        "Successful plan RPC latency per replica, microseconds.");
    replicas_.push_back(std::move(replica));
  }
}

StatusOr<std::unique_ptr<ReplicaSet>> ReplicaSet::Create(
    std::vector<ServiceAddress> addresses, ReplicaSetOptions options) {
  if (addresses.empty()) {
    return Status::InvalidArgument("a ReplicaSet needs at least one replica address");
  }
  if (options.hedge_min_delay_ms < 0 ||
      options.hedge_max_delay_ms < options.hedge_min_delay_ms) {
    return Status::InvalidArgument("hedge delay bounds must satisfy 0 <= min <= max");
  }
  if (options.hedge_budget_fraction < 0.0 || options.hedge_budget_burst < 0) {
    return Status::InvalidArgument("hedge budget must be non-negative");
  }
  return std::unique_ptr<ReplicaSet>(
      new ReplicaSet(std::move(addresses), std::move(options)));
}

ReplicaSet::~ReplicaSet() {
  // Wait out loser attempts: they hold shared_ptrs to replicas and to the call state,
  // but they also bump this set's counters, so none may run past this point. Each is
  // bounded by the connect/io timeouts, so this terminates.
  MutexLock lock(outstanding_->mu);
  while (outstanding_->count != 0) {
    outstanding_->cv.Wait(outstanding_->mu);
  }
}

std::vector<size_t> ReplicaSet::RouteOrder(const std::vector<int64_t>& seqlens,
                                           const MaskSpec& mask_spec,
                                           int64_t block_size) const {
  const PlanSignature key =
      PlanRequestCacheKey(options_.tenant, seqlens, mask_spec, block_size);
  // Rendezvous hashing: weight(request, replica) = mix(key, addr_hash); sort replicas
  // by weight. Every client computes the same order with no shared state, and removing
  // a replica only reroutes the requests that had ranked it first.
  std::vector<std::pair<uint64_t, size_t>> weighted;
  weighted.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const uint64_t weight =
        SplitMix64(key.lo ^ SplitMix64(key.hi ^ replicas_[i]->addr_hash));
    weighted.emplace_back(weight, i);
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const std::pair<uint64_t, size_t>& a,
               const std::pair<uint64_t, size_t>& b) {
              return a.first > b.first || (a.first == b.first && a.second < b.second);
            });
  std::vector<size_t> order;
  order.reserve(weighted.size());
  for (const auto& entry : weighted) {
    order.push_back(entry.second);
  }
  return order;
}

int64_t ReplicaSet::HedgeDelayMs(const Replica& replica) const {
  std::vector<int64_t> samples;
  {
    MutexLock lock(replica.mu);
    samples = replica.latencies_ms;
  }
  if (samples.size() < kMinLatencySamples) {
    return options_.hedge_max_delay_ms;
  }
  const int64_t p99 = QuantileMs(samples, 0.99);
  return std::max<int64_t>(options_.hedge_min_delay_ms,
                           std::min<int64_t>(options_.hedge_max_delay_ms, p99));
}

bool ReplicaSet::HedgeBudgetAllows() {
  // The hedge this grants must itself fit: with a fractional allowance (4.4 after 48
  // requests at burst 2, 5%), `sent < allowance` would let a fifth hedge through.
  // Counter reads are independent relaxed loads; a hedge slipping in on a stale
  // read overshoots the budget by at most one, which the burst term already
  // tolerates.
  const double allowance =
      static_cast<double>(options_.hedge_budget_burst) +
      options_.hedge_budget_fraction *
          static_cast<double>(counters_.requests->value());
  return static_cast<double>(counters_.hedges_sent->value() + 1) <= allowance;
}

StatusOr<PlanHandle> ReplicaSet::AttemptOnReplica(Replica& replica,
                                                  const std::vector<int64_t>& seqlens,
                                                  const MaskSpec& mask_spec,
                                                  int64_t block_size) {
  const int64_t started_us = metrics::MonotonicMicros();
  // Lazy connect OUTSIDE the replica lock: PlanClient's constructor resolves metrics
  // instruments (the Registry mutex is a leaf, never taken under Replica::mu) and the
  // TCP connect can block for connect_timeout_ms — neither belongs under the lock
  // health snapshots take. Two attempts may race to connect; the loser's socket is
  // discarded after the lock is released.
  PlanClient* client = nullptr;
  {
    MutexLock lock(replica.mu);
    ++replica.rpcs;
    client = replica.client.get();
  }
  if (client == nullptr) {
    PlanClientOptions client_options;
    client_options.tenant = options_.tenant;
    client_options.cache_capacity = 0;  // The set's LRU is the only cache tier here.
    client_options.planner_threads = 1;
    client_options.connect_timeout_ms = options_.connect_timeout_ms;
    client_options.io_timeout_ms = options_.request_timeout_ms;
    client_options.deadline_ms = options_.request_timeout_ms;
    client_options.retry = options_.retry;
    StatusOr<std::unique_ptr<PlanClient>> connected =
        PlanClient::Connect(replica.address, std::move(client_options));
    if (!connected.ok()) {
      MutexLock lock(replica.mu);
      ++replica.failures;
      const bool entering = replica.cooldown.consecutive_failures() == 0;
      replica.cooldown.RecordFailure(NowMs());
      if (entering) {
        counters_.cooldowns_entered->Increment();
      }
      return connected.status();
    }
    std::unique_ptr<PlanClient> fresh = std::move(connected).value();
    {
      MutexLock lock(replica.mu);
      if (replica.client == nullptr) {
        replica.client = std::move(fresh);
      }
      client = replica.client.get();
    }
    // A lost race destroys `fresh` here, outside the lock (~PlanClient closes a
    // socket and drops its child registry).
  }

  StatusOr<PlanHandle> result =
      client->PlanWithBlockSize(seqlens, mask_spec, block_size);
  const int64_t elapsed_us = metrics::MonotonicMicros() - started_us;
  const int64_t elapsed_ms = elapsed_us / 1000;
  MutexLock lock(replica.mu);
  if (result.ok()) {
    replica.cooldown.RecordSuccess();
    replica.rpc_latency_us->Record(elapsed_us);
    if (replica.latencies_ms.size() < kLatencyRingSize) {
      replica.latencies_ms.push_back(elapsed_ms);
    } else {
      replica.latencies_ms[replica.latency_next] = elapsed_ms;
      replica.latency_next = (replica.latency_next + 1) % kLatencyRingSize;
    }
  } else if (IsRetryableStatus(result.status())) {
    // Transport-level: the replica (or the path to it) is sick — cool it down. An
    // application rejection deliberately skips this: the replica answered correctly.
    ++replica.failures;
    const bool entering = replica.cooldown.consecutive_failures() == 0;
    replica.cooldown.RecordFailure(NowMs());
    if (entering) {
      counters_.cooldowns_entered->Increment();
    }
  }
  return result;
}

void ReplicaSet::LaunchAttempt(const std::shared_ptr<HedgedCall>& call,
                               const std::shared_ptr<Replica>& replica,
                               bool is_hedge) {
  counters_.rpcs_sent->Increment();
  {
    MutexLock lock(outstanding_->mu);
    ++outstanding_->count;
  }
  std::thread([this, call, replica, is_hedge, outstanding = outstanding_] {
    StatusOr<PlanHandle> result = AttemptOnReplica(
        *replica, call->seqlens, call->mask_spec, call->block_size);
    bool won = false;
    {
      MutexLock lock(call->mu);
      ++call->finished;
      if (result.ok()) {
        if (!call->done) {
          call->done = true;
          call->result = std::move(result).value();
          call->winner_was_hedge = is_hedge;
          won = true;
        }
      } else if (!IsRetryableStatus(result.status())) {
        call->fatal = result.status();
      } else {
        call->last_error = result.status();
      }
      call->cv.NotifyAll();
    }
    if (is_hedge && !won) {
      // The hedge lost its race (or failed outright): pure extra load. `this` is
      // still valid — the destructor blocks on `outstanding` below.
      counters_.hedge_waste->Increment();
    }
    // Past this point only `outstanding` (shared_ptr) is touched: the set's destructor
    // may run as soon as count hits zero.
    MutexLock lock(outstanding->mu);
    --outstanding->count;
    outstanding->cv.NotifyAll();
  }).detach();
}

StatusOr<PlanHandle> ReplicaSet::LocalFallbackPlan(
    const std::vector<int64_t>& seqlens, const MaskSpec& mask_spec,
    int64_t block_size) {
  MutexLock lock(fallback_mu_);
  if (fallback_engine_ == nullptr) {
    fallback_engine_ = std::make_unique<Engine>(options_.fallback_cluster,
                                                options_.fallback_options);
  }
  counters_.local_fallbacks->Increment();
  // Fallback planning is deliberately serialized under fallback_mu_: the embedded
  // Engine's internal locks (tune/cache/store/pool) nest strictly under it and no
  // path acquires fallback_mu_ under any of them.
  // dcp-analyze: allow(lock-order): cross-class nesting documented above.
  return fallback_engine_->PlanWithBlockSize(seqlens, mask_spec, block_size);
}

StatusOr<PlanHandle> ReplicaSet::PlanWithBlockSize(
    const std::vector<int64_t>& seqlens, const MaskSpec& mask_spec,
    int64_t block_size) {
  counters_.requests->Increment();
  const PlanSignature key =
      PlanRequestCacheKey(options_.tenant, seqlens, mask_spec, block_size);
  {
    MutexLock lock(cache_mu_);
    if (const PlanHandle* cached = cache_.Find(key)) {
      counters_.cache_hits->Increment();
      return *cached;
    }
  }

  const std::vector<size_t> order = RouteOrder(seqlens, mask_spec, block_size);
  const int64_t now = NowMs();
  std::vector<size_t> live;
  for (size_t index : order) {
    bool available;
    {
      MutexLock lock(replicas_[index]->mu);
      available = replicas_[index]->cooldown.Available(now);
    }
    if (available) {
      live.push_back(index);
    }
  }
  if (live.empty()) {
    // Everything is cooling: probe the whole fleet anyway rather than refusing — a
    // request in hand is the cheapest health probe there is.
    live = order;
  }

  auto call = std::make_shared<HedgedCall>();
  call->seqlens = seqlens;
  call->mask_spec = mask_spec;
  call->block_size = block_size;

  const int64_t hedge_delay = HedgeDelayMs(*replicas_[live[0]]);
  size_t cursor = 0;
  {
    MutexLock lock(call->mu);
    ++call->launched;
    // Hedging bookkeeping: LaunchAttempt takes outstanding_->mu in its own scope
    // (its counters are lock-free registry cells), and outstanding_->mu is never
    // held when a HedgedCall::mu is acquired, so the nesting cannot invert.
    // dcp-analyze: allow(lock-order): cross-class nesting documented above.
    LaunchAttempt(call, replicas_[live[cursor]], /*is_hedge=*/false);
    ++cursor;
    // "Resolved" below means: a win, a fatal rejection, or every launched attempt has
    // reported back. Written as inline wait loops rather than a predicate lambda —
    // the thread-safety analysis cannot carry the held-lock fact into a lambda body.
    //
    // Hedge window: give the routed replica its p99 budget, then (once, budget
    // permitting) race the next replica in hash order.
    if (options_.hedging && cursor < live.size()) {
      const int64_t deadline_ms = metrics::MonotonicMillis() + hedge_delay;
      while (!call->done && call->fatal.ok() && call->finished != call->launched) {
        const int64_t remaining_ms = deadline_ms - metrics::MonotonicMillis();
        if (remaining_ms <= 0) {
          break;
        }
        call->cv.WaitFor(call->mu, std::chrono::milliseconds(remaining_ms));
      }
      const bool resolved =
          call->done || !call->fatal.ok() || call->finished == call->launched;
      if (!resolved && HedgeBudgetAllows()) {
        counters_.hedges_sent->Increment();
        ++call->launched;
        LaunchAttempt(call, replicas_[live[cursor]], /*is_hedge=*/true);
        ++cursor;
      }
    }
    // Failover loop: every time all launched attempts have failed, try the next
    // replica in hash order until a win, a fatal rejection, or fleet exhaustion.
    while (true) {
      while (!call->done && call->fatal.ok() && call->finished != call->launched) {
        call->cv.Wait(call->mu);
      }
      if (call->done || !call->fatal.ok()) {
        break;
      }
      if (cursor >= live.size()) {
        break;
      }
      counters_.failovers->Increment();
      ++call->launched;
      LaunchAttempt(call, replicas_[live[cursor]], /*is_hedge=*/false);
      ++cursor;
    }
    if (call->done) {
      if (call->winner_was_hedge) {
        counters_.hedge_wins->Increment();
      }
      PlanHandle handle = call->result;
      lock.Unlock();
      MutexLock cache_lock(cache_mu_);
      cache_.Insert(key, handle);
      return handle;
    }
    if (!call->fatal.ok()) {
      return call->fatal;
    }
    if (!call->last_error.ok() && !options_.local_fallback) {
      return call->last_error;
    }
  }
  if (options_.local_fallback) {
    return LocalFallbackPlan(seqlens, mask_spec, block_size);
  }
  return Status::Unavailable("all " + std::to_string(replicas_.size()) +
                             " replicas unavailable");
}

StatusOr<PlanHandle> ReplicaSet::Plan(const std::vector<int64_t>& seqlens,
                                      const MaskSpec& mask_spec) {
  return PlanWithBlockSize(seqlens, mask_spec, /*block_size=*/0);
}

ReplicaHealth ReplicaSet::health(size_t index) const {
  DCP_CHECK_LT(index, replicas_.size());
  const Replica& replica = *replicas_[index];
  ReplicaHealth health;
  health.address = replica.address;
  const int64_t now = NowMs();
  std::vector<int64_t> samples;
  {
    MutexLock lock(replica.mu);
    health.available = replica.cooldown.Available(now);
    health.consecutive_failures = replica.cooldown.consecutive_failures();
    health.backoff_ms = replica.cooldown.backoff_ms();
    health.rpcs = replica.rpcs;
    health.failures = replica.failures;
    samples = replica.latencies_ms;
  }
  health.latency_samples = static_cast<int64_t>(samples.size());
  health.p50_ms = QuantileMs(samples, 0.50);
  health.p95_ms = QuantileMs(samples, 0.95);
  health.p99_ms = QuantileMs(samples, 0.99);
  health.p99_estimate_ms = HedgeDelayMs(replica);  // Takes the lock itself.
  return health;
}

ReplicaSetStats ReplicaSet::stats() const {
  ReplicaSetStats snapshot;
  snapshot.requests = counters_.requests->value();
  snapshot.cache_hits = counters_.cache_hits->value();
  snapshot.rpcs_sent = counters_.rpcs_sent->value();
  snapshot.failovers = counters_.failovers->value();
  snapshot.hedges_sent = counters_.hedges_sent->value();
  snapshot.hedge_wins = counters_.hedge_wins->value();
  snapshot.hedge_waste = counters_.hedge_waste->value();
  snapshot.cooldowns_entered = counters_.cooldowns_entered->value();
  snapshot.local_fallbacks = counters_.local_fallbacks->value();
  return snapshot;
}

void ReplicaSet::ClearCache() {
  MutexLock lock(cache_mu_);
  cache_.Clear();
}

}  // namespace dcp
