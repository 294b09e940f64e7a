// Deterministic fault injection for the planning service: a seedable FaultInjector
// decides, per operation, whether a connect/send/recv/serve step fails, tears the
// connection after K bytes, or stalls — and the transport consults it on every call, so
// the exact failure modes a production fleet sees (refused connections, frames torn
// mid-payload, straggling replicas, stale gossip records) are reproducible in tests and
// in `dcpctl serve --chaos`.
//
// Determinism contract: every decision derives from (seed, per-point operation
// counter) through a splitmix64 stream — never from wall clock or global RNG state —
// so a single-threaded test replays the identical fault schedule for a given seed, and
// CI can run a *different* schedule per run simply by varying DCP_FAULT_SEED while
// keeping every run reproducible from its logged seed.
#ifndef DCP_SERVICE_FAULT_INJECTION_H_
#define DCP_SERVICE_FAULT_INJECTION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/thread_annotations.h"

namespace dcp {

// Where in the request path a fault can strike.
enum class FaultPoint : uint8_t {
  kConnect = 0,  // Establishing a connection (ConnectSocket).
  kSend,         // One Socket::SendAll / Socket::Writev call.
  kRecv,         // One Socket::RecvAll / Socket::ReadSome call.
  kServe,        // Server-side request handling, before planning (straggler delays).
  kSyncRecord,   // One record shipped by anti-entropy gossip (stale-record corruption).
  kAccept,       // One server-side accept attempt (kFail simulates transient
                 // EMFILE/ECONNABORTED pressure without consuming the pending
                 // connection — it stays in the listen backlog for the retry).
};
constexpr int kNumFaultPoints = 6;

enum class FaultAction : uint8_t {
  kNone = 0,
  kFail,   // The operation fails outright (UNAVAILABLE); the caller closes the socket.
  kTear,   // Let `tear_bytes` through, then shut the connection down: the peer sees a
           // torn frame (DATA_LOSS mid-payload) instead of a clean close.
  kDelay,  // Stall `delay_ms`, then proceed normally (straggler, not a failure).
  kStale,  // kSyncRecord only: corrupt the record bytes before shipping, so the
           // receiver's CRC validation must catch and reject it.
};

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  int delay_ms = 0;
  size_t tear_bytes = 0;
};

// Per-point fault schedule. Probabilities draw from the seeded stream; `every_n`
// instead fires `periodic_action` on every Nth operation at the point — independent of
// the seed, which benches use for an exactly reproducible straggler pattern.
struct FaultRates {
  double fail = 0.0;
  double tear = 0.0;
  double delay = 0.0;
  double stale = 0.0;
  int delay_ms = 20;
  size_t tear_bytes = 8;  // Bytes let through before a kTear kills the connection.
  int every_n = 0;
  FaultAction periodic_action = FaultAction::kNone;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void SetRates(FaultPoint point, const FaultRates& rates);

  // One operation at `point`: returns what (if anything) should go wrong. Each point
  // owns an independent splitmix64 stream, so enabling faults at one point never
  // perturbs the schedule at another.
  FaultDecision Decide(FaultPoint point);

  uint64_t seed() const { return seed_; }
  int64_t decisions() const;
  int64_t injected() const;  // Decisions whose action was not kNone.

 private:
  const uint64_t seed_;
  // Decide() holds it only around its own counters/PRNG state; callers may hold
  // any lock when consulting the injector.
  // dcp-analyze: allow(lock-order): leaf lock.
  mutable Mutex mu_;
  std::array<FaultRates, kNumFaultPoints> rates_ DCP_GUARDED_BY(mu_);
  // splitmix64 state per point.
  std::array<uint64_t, kNumFaultPoints> streams_ DCP_GUARDED_BY(mu_);
  // Operation counter per point.
  std::array<int64_t, kNumFaultPoints> ops_ DCP_GUARDED_BY(mu_);
  int64_t decisions_ DCP_GUARDED_BY(mu_) = 0;
  int64_t injected_ DCP_GUARDED_BY(mu_) = 0;
};

// Process-global injector consulted by ConnectSocket and by PlanServer's accept path:
// when installed, every new socket in the process carries it (dcpctl serve --chaos).
// Install nullptr to disarm. Tests that need isolation set
// PlanServerOptions::fault_injector on their server instead.
void InstallGlobalFaultInjector(std::shared_ptr<FaultInjector> injector);
std::shared_ptr<FaultInjector> GlobalFaultInjector();

// The CI chaos knob: DCP_FAULT_SEED parsed as an unsigned integer, or `fallback` when
// the variable is unset/empty/non-numeric.
uint64_t FaultSeedFromEnv(uint64_t fallback);

}  // namespace dcp

#endif  // DCP_SERVICE_FAULT_INJECTION_H_
