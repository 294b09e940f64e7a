// dcp::PlanClient — the trainer-side half of the planning service. Implements the same
// Planner interface as the in-process Engine, so a DcpDataLoader (or any other caller)
// can be pointed at a remote planning service transparently:
//
//   auto client = PlanClient::Connect(ServiceAddress::Parse("tcp:10.0.0.7:7070").value(),
//                                     {.tenant = "prod"}).value();
//   DcpDataLoader loader(stream, MaskSpec::Causal(), std::move(client));  // unchanged loop
//
// Each Plan() first consults a client-side LRU keyed by the full request content
// (tenant, seqlens, mask parameters, block size) — a hit never touches the network.
// Misses run one RPC: the response carries the plan as PlanStore record bytes, CRC
// verified and bounds-checked end to end before any field is trusted, and the decoded
// plan is bit-identical to what an in-process Engine::Plan would have produced. RPCs
// are serialized per client (one outstanding request per connection); share one client
// across loader lookahead threads, or create one per thread for pipelined planning.
#ifndef DCP_SERVICE_PLAN_CLIENT_H_
#define DCP_SERVICE_PLAN_CLIENT_H_

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
#include "core/signature_lru.h"
#include "service/frame.h"
#include "service/messages.h"
#include "service/transport.h"

namespace dcp {

// Bounded retry for transport-level failures, shared by PlanClient and ReplicaSet.
// Retries chase only "safe" errors — failures where resending cannot double-apply
// anything (plan RPCs are idempotent: planning is deterministic, so a replayed plan is
// bit-identical) and where a fresh attempt can plausibly succeed: a dropped or refused
// connection, a timeout, a torn response frame. Application-level rejections (invalid
// argument, unknown tenant) are surfaced immediately — they would fail identically on
// every retry.
struct RetryPolicy {
  int max_attempts = 3;        // Total tries per RPC; 1 disables retry.
  int initial_backoff_ms = 5;  // Doubled per retry, capped at max_backoff_ms.
  int max_backoff_ms = 200;
  // Retry k sleeps in [backoff/2, backoff], the offset drawn deterministically from
  // (jitter_seed, k) — reproducible in tests, still decorrelated across clients that
  // seed differently.
  uint64_t jitter_seed = 0x646370722d727472ULL;
};

// True for the statuses RetryPolicy may chase: UNAVAILABLE, DEADLINE_EXCEEDED, and
// DATA_LOSS (a torn/desynced response stream — the request is idempotent and the retry
// runs on a fresh connection).
bool IsRetryableStatus(const Status& status);

// The backoff before the `retry`-th retry (1-based), per `policy`. Exposed so
// ReplicaSet paces its reconnect probes identically.
int RetryBackoffMs(const RetryPolicy& policy, int retry);

// The client-side cache key for one plan request: a signature over the full request
// content (tenant name folded in, so distinct tenants can never alias). Shared by the
// PlanClient LRU and by ReplicaSet, whose rendezvous routing and its own LRU must
// agree with the per-replica clients on request identity.
PlanSignature PlanRequestCacheKey(const std::string& tenant,
                                  const std::vector<int64_t>& seqlens,
                                  const MaskSpec& mask_spec, int64_t block_size);

struct PlanClientOptions {
  std::string tenant = "default";
  // Client-side plan LRU capacity; 0 disables local caching (every Plan is an RPC).
  int cache_capacity = 64;
  // Look-ahead pool threads when a DcpDataLoader drives this client.
  int planner_threads = 2;
  uint64_t max_frame_payload_bytes = 0;  // 0: frame.h default.
  // Transport budgets: a bound on each (re)connect and on each send/recv (the whole
  // call, enforced by Socket's poll loop). -1 blocks indefinitely.
  int connect_timeout_ms = -1;
  int io_timeout_ms = -1;
  // End-to-end request budget shipped on every plan request (relative ms; 0 = none).
  // The server sheds the request unplanned once this has expired.
  int64_t deadline_ms = 0;
  // Transport-failure retry policy (replaces the old single transparent reconnect,
  // which retried exactly once and blindly — even on protocol desync).
  RetryPolicy retry{};
};

struct PlanClientStats {
  int64_t cache_hits = 0;      // Served from the client LRU without an RPC.
  int64_t rpcs_sent = 0;
  int64_t rpc_errors = 0;      // Transport/framing failures (not server-side statuses).
  int64_t reconnects = 0;
  int64_t retries = 0;         // Attempts beyond the first, across all RPCs.
};

class PlanClient : public Planner {
 public:
  static StatusOr<std::unique_ptr<PlanClient>> Connect(const ServiceAddress& address,
                                                       PlanClientOptions options);
  ~PlanClient() override;

  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  // Planner interface. Plan sends block_size 0: the tenant's server-side policy
  // (fixed block or auto-tune) decides, exactly like the in-process engine.
  StatusOr<PlanHandle> Plan(const std::vector<int64_t>& seqlens,
                            const MaskSpec& mask_spec) override;
  StatusOr<PlanHandle> PlanWithBlockSize(const std::vector<int64_t>& seqlens,
                                         const MaskSpec& mask_spec, int64_t block_size);
  ThreadPool& pool() override { return *pool_; }

  // Where the most recent Plan() on this thread's call was served from (client cache,
  // server memory/store cache, or freshly planned). For benches and tests.
  PlanServeSource last_source() const;

  // One metrics scrape from the server: Prometheus text for every series whose
  // name starts with `name_prefix` ("" for everything). Requires a v3 server.
  StatusOr<PlanServiceMetricsResponse> ServerMetrics(
      const std::string& name_prefix = "");

  const ServiceAddress& address() const { return address_; }
  const PlanClientOptions& options() const { return options_; }
  // Snapshot of the client's registry counters (see counters_).
  PlanClientStats stats() const;
  void ClearCache();

 private:
  PlanClient(ServiceAddress address, PlanClientOptions options);

  // One serialized request/response exchange, with optional reconnect-and-retry.
  // Returns the response frame: either `expected_response` or kErrorResponse (whose
  // payload is a PlanServiceResponse carrying only a status) — callers pick the codec
  // by the returned type.
  StatusOr<Frame> Roundtrip(FrameType request_type, const std::string& payload,
                            FrameType expected_response);
  // Decodes a kErrorResponse frame into the server's status.
  static Status DecodeErrorFrame(const Frame& frame);
  Status EnsureConnectedLocked() DCP_REQUIRES(io_mu_);

  // Client cache key: a signature over the full request content. Distinct tenants can
  // never alias (the tenant name is folded in), so one client reused across tenants
  // would still be safe.
  PlanSignature CacheKey(const std::vector<int64_t>& seqlens, const MaskSpec& mask_spec,
                         int64_t block_size) const;

  const ServiceAddress address_;
  const PlanClientOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  // Serializes RPCs on the single connection.
  Mutex io_mu_;
  Socket socket_ DCP_GUARDED_BY(io_mu_);
  bool connected_ DCP_GUARDED_BY(io_mu_) = false;

  mutable Mutex cache_mu_;
  SignatureLru<PlanHandle> cache_ DCP_GUARDED_BY(cache_mu_);
  PlanServeSource last_source_ DCP_GUARDED_BY(cache_mu_) = PlanServeSource::kPlanned;

  // Client instruments in a child registry labeled {tenant=<options.tenant>},
  // resolved once at construction. The counters are plain atomics after that, so
  // PlanClientStats is a thin view that never disagrees with a scrape.
  std::shared_ptr<metrics::Registry> metrics_;
  struct ClientCounters {
    metrics::Counter* cache_hits = nullptr;
    metrics::Counter* rpcs_sent = nullptr;
    metrics::Counter* rpc_errors = nullptr;
    metrics::Counter* reconnects = nullptr;
    metrics::Counter* retries = nullptr;
  };
  ClientCounters counters_;
  // Client-observed plan latency per serve source, {tenant=, source=}. This is
  // the only place kClientCache can be measured (the server never sees those
  // requests), completing the per-source latency picture a scrape shows.
  metrics::Histogram* serve_latency_us_[5] = {};
};

}  // namespace dcp

#endif  // DCP_SERVICE_PLAN_CLIENT_H_
