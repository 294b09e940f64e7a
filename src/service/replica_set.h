// dcp::ReplicaSet — the fault-tolerant client layer above PlanClient: one Planner over
// N planning-service replicas. A single PlanClient turns a dead server into a dead
// training job; a ReplicaSet turns it into a failover.
//
//   auto set = ReplicaSet::Create({addr_a, addr_b, addr_c}, {.tenant = "prod"}).value();
//   DcpDataLoader loader(stream, MaskSpec::Causal(), std::move(set));  // unchanged loop
//
// Mechanisms, in request order:
//   - Signature-affinity routing: each request's cache key picks a deterministic replica
//     order by rendezvous (highest-random-weight) hashing, so identical batch shapes
//     keep landing on the same replica and its caches stay hot — and every other
//     replica is still a ranked fallback, with no routing table to rebuild when one
//     dies.
//   - Hedged requests: planning latency is occasionally heavy-tailed (a straggling
//     replica, a cold cache). After a per-replica p99-derived delay, the same request
//     is fired at the next replica in hash order and the first valid (CRC- and
//     signature-checked, in PlanClient) response wins. A hedge budget bounds the extra
//     request volume to a small fraction of traffic.
//   - Failover + cooldown: a transport-level failure (refused connect, timeout, torn
//     frame) demotes the replica into a cooldown with exponential backoff and
//     deterministic jitter; requests route around it until its next probe time.
//     Application-level rejections (invalid argument, unknown tenant) fail the request
//     immediately — every replica would answer identically.
//   - Local fallback: with every replica down and a fallback cluster configured, the
//     set plans in-process. Planning is deterministic, so the fallback's plans are
//     bit-identical to the fleet's (same cluster spec and planner options assumed).
#ifndef DCP_SERVICE_REPLICA_SET_H_
#define DCP_SERVICE_REPLICA_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/plan_signature.h"
#include "service/plan_client.h"
#include "service/transport.h"

namespace dcp {

// Exponential-backoff cooldown for one replica. Pure state machine over caller-supplied
// timestamps (milliseconds on any monotonic clock), so tests drive it with a fake clock.
struct CooldownPolicy {
  int initial_ms = 50;
  int max_ms = 5000;
  double multiplier = 2.0;
  // Jitter is drawn deterministically from (seed, salt, failure count): reproducible
  // per replica, decorrelated across replicas so probes never synchronize.
  uint64_t jitter_seed = 0x646370722d636f6fULL;
};

class ReplicaCooldown {
 public:
  ReplicaCooldown() = default;
  ReplicaCooldown(CooldownPolicy policy, uint64_t salt)
      : policy_(policy), salt_(salt) {}

  // True when the replica may be tried: never failed, or its probe time has come.
  bool Available(int64_t now_ms) const;
  // One more transport-level failure: doubles the backoff (capped), schedules the next
  // probe at now + backoff +/- jitter (jitter within [-backoff/4, +backoff/4]).
  void RecordFailure(int64_t now_ms);
  // A successful exchange fully restores the replica.
  void RecordSuccess();

  int consecutive_failures() const { return consecutive_failures_; }
  int64_t backoff_ms() const { return backoff_ms_; }
  int64_t next_probe_ms() const { return next_probe_ms_; }

 private:
  CooldownPolicy policy_;
  uint64_t salt_ = 0;
  int consecutive_failures_ = 0;
  int64_t backoff_ms_ = 0;
  int64_t next_probe_ms_ = 0;
};

struct ReplicaSetOptions {
  std::string tenant = "default";
  // The set's own plan LRU (per-replica clients run cache-less so a failover never
  // consults a dead client's cache). 0 disables.
  int cache_capacity = 64;
  // Look-ahead pool threads when a DcpDataLoader drives this set.
  int planner_threads = 2;
  // Transport budgets applied to every per-replica client: bounded connects, bounded
  // send/recv, and an end-to-end deadline shipped with each request so a failed-over
  // request's abandoned twin is shed server-side.
  int connect_timeout_ms = 1000;
  int request_timeout_ms = 2000;
  // Per-replica RPC retry (RetryPolicy semantics from plan_client.h). Defaults to a
  // single attempt: the set prefers failing over to a healthy replica immediately over
  // retrying a sick one, and hedging already covers transient slowness.
  RetryPolicy retry{/*max_attempts=*/1, /*initial_backoff_ms=*/5,
                    /*max_backoff_ms=*/200};
  CooldownPolicy cooldown;

  // Hedging: after hedge delay ms (the routed replica's streaming p99 estimate,
  // clamped to [min, max]; max until enough samples exist) with no response, fire the
  // request at the next replica in hash order. At most one hedge per request, and at
  // most burst + fraction * requests hedges in total.
  bool hedging = true;
  int hedge_min_delay_ms = 2;
  int hedge_max_delay_ms = 100;
  double hedge_budget_fraction = 0.05;
  int hedge_budget_burst = 4;

  // Last resort on total fleet loss: plan in-process on this cluster/config. Only
  // consulted when local_fallback is true; must match the fleet's tenant config for
  // bit-identical plans.
  bool local_fallback = false;
  ClusterSpec fallback_cluster;
  EngineOptions fallback_options;
};

// Assembled on demand from the set's registry counters (dcp_replica_set_*_total),
// so callers keep a plain-struct snapshot while scrapers see the live series.
struct ReplicaSetStats {
  int64_t requests = 0;
  int64_t cache_hits = 0;       // Served from the set's LRU without any RPC.
  int64_t rpcs_sent = 0;        // Attempts launched across all replicas.
  int64_t failovers = 0;        // Launches forced by a failed prior attempt.
  int64_t hedges_sent = 0;
  int64_t hedge_wins = 0;       // Requests whose winning response came from a hedge.
  int64_t hedge_waste = 0;      // Hedges that finished without winning their request.
  int64_t cooldowns_entered = 0;
  int64_t local_fallbacks = 0;  // Requests planned by the in-process fallback engine.
};

// Health snapshot of one replica, for tests, benches, and dcpctl.
struct ReplicaHealth {
  ServiceAddress address;
  bool available = true;
  int consecutive_failures = 0;
  int64_t backoff_ms = 0;
  int64_t rpcs = 0;
  int64_t failures = 0;
  // Raw quantiles over the replica's latency ring (up to the last 64 successful
  // RPCs), in milliseconds; all zero until the first success lands.
  int64_t latency_samples = 0;
  int64_t p50_ms = 0;
  int64_t p95_ms = 0;
  int64_t p99_ms = 0;
  // The hedge delay this replica would get: ring p99 clamped to the configured
  // [min, max] window, or max until enough samples exist.
  int64_t p99_estimate_ms = 0;
};

class ReplicaSet : public Planner {
 public:
  // Validates and adopts the replica addresses; connections are made lazily per
  // replica on first use (a dead replica at construction time must not block startup).
  static StatusOr<std::unique_ptr<ReplicaSet>> Create(
      std::vector<ServiceAddress> addresses, ReplicaSetOptions options);
  ~ReplicaSet() override;

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // Planner interface; block_size 0 defers to the tenant's server-side policy.
  StatusOr<PlanHandle> Plan(const std::vector<int64_t>& seqlens,
                            const MaskSpec& mask_spec) override;
  StatusOr<PlanHandle> PlanWithBlockSize(const std::vector<int64_t>& seqlens,
                                         const MaskSpec& mask_spec,
                                         int64_t block_size);
  ThreadPool& pool() override { return *pool_; }

  // The rendezvous order this request would route through (primary first). Exposed so
  // tests and benches can kill a known primary deterministically.
  std::vector<size_t> RouteOrder(const std::vector<int64_t>& seqlens,
                                 const MaskSpec& mask_spec,
                                 int64_t block_size = 0) const;

  size_t replica_count() const { return replicas_.size(); }
  ReplicaHealth health(size_t index) const;
  ReplicaSetStats stats() const;
  void ClearCache();

 private:
  // One replica: its lazily-connected client, cooldown state, and a latency ring for
  // the hedge-delay estimate. Held by shared_ptr — hedge loser threads outlive the
  // request that launched them (bounded by the socket timeouts) and may touch this
  // after the request returned.
  struct Replica {
    ServiceAddress address;      // Immutable after construction.
    uint64_t addr_hash = 0;      // Immutable after construction.
    // Registry series {replica=<address>}; resolved once at construction, then
    // only atomically recorded into (safe from detached attempt threads).
    metrics::Histogram* rpc_latency_us = nullptr;
    mutable Mutex mu;
    std::unique_ptr<PlanClient> client DCP_GUARDED_BY(mu);
    ReplicaCooldown cooldown DCP_GUARDED_BY(mu);
    // Ring buffer, newest overwrites oldest.
    std::vector<int64_t> latencies_ms DCP_GUARDED_BY(mu);
    size_t latency_next DCP_GUARDED_BY(mu) = 0;
    int64_t rpcs DCP_GUARDED_BY(mu) = 0;
    int64_t failures DCP_GUARDED_BY(mu) = 0;
  };

  // Shared state of one (possibly hedged, possibly failed-over) logical request.
  struct HedgedCall;

  ReplicaSet(std::vector<ServiceAddress> addresses, ReplicaSetOptions options);

  // Launches one attempt on `replica` in a detached thread. Callers bump
  // call->launched themselves (under call->mu — HedgedCall is .cc-local, so the
  // requirement cannot be annotated here).
  void LaunchAttempt(const std::shared_ptr<HedgedCall>& call,
                     const std::shared_ptr<Replica>& replica, bool is_hedge);
  // One blocking RPC on one replica (connects lazily); updates the replica's cooldown,
  // counters, and latency ring.
  StatusOr<PlanHandle> AttemptOnReplica(Replica& replica,
                                        const std::vector<int64_t>& seqlens,
                                        const MaskSpec& mask_spec, int64_t block_size);
  int64_t HedgeDelayMs(const Replica& replica) const;
  bool HedgeBudgetAllows();
  StatusOr<PlanHandle> LocalFallbackPlan(const std::vector<int64_t>& seqlens,
                                         const MaskSpec& mask_spec,
                                         int64_t block_size);

  const ReplicaSetOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::shared_ptr<Replica>> replicas_;

  // Attempt threads still running; the destructor waits for zero so no detached thread
  // can outlive the replicas it holds via shared_ptr while the set's stats are gone.
  struct Outstanding;
  std::shared_ptr<Outstanding> outstanding_;

  mutable Mutex cache_mu_;
  SignatureLru<PlanHandle> cache_ DCP_GUARDED_BY(cache_mu_);

  Mutex fallback_mu_;
  std::unique_ptr<Engine> fallback_engine_ DCP_GUARDED_BY(fallback_mu_);

  // Set-level counters, resolved once at construction from a child registry
  // labeled {tenant=<options.tenant>}. Plain atomics after that: attempt
  // threads bump them with no set-level lock, and stats() reads them back.
  std::shared_ptr<metrics::Registry> metrics_;
  struct SetCounters {
    metrics::Counter* requests = nullptr;
    metrics::Counter* cache_hits = nullptr;
    metrics::Counter* rpcs_sent = nullptr;
    metrics::Counter* failovers = nullptr;
    metrics::Counter* hedges_sent = nullptr;
    metrics::Counter* hedge_wins = nullptr;
    metrics::Counter* hedge_waste = nullptr;
    metrics::Counter* cooldowns_entered = nullptr;
    metrics::Counter* local_fallbacks = nullptr;
  };
  SetCounters counters_;
};

}  // namespace dcp

#endif  // DCP_SERVICE_REPLICA_SET_H_
