#include "service/fault_injection.h"

#include <cstdlib>
#include <utility>

#include "common/rng.h"

namespace dcp {
namespace {

// One splitmix64 draw: the whole stream is reproducible from a single u64 state — the
// determinism contract in the header.
uint64_t NextDraw(uint64_t* state) {
  const uint64_t z = SplitMix64(*state);
  *state += 0x9E3779B97F4A7C15ull;
  return z;
}

double UnitDouble(uint64_t* state) {
  return static_cast<double>(NextDraw(state) >> 11) * 0x1.0p-53;
}

// Guards only the global injector slot pointer; held for a pointer copy.
// dcp-analyze: allow(lock-order): leaf lock.
Mutex g_global_mu;
std::shared_ptr<FaultInjector>& GlobalSlot() {
  static std::shared_ptr<FaultInjector> slot;
  return slot;
}

}  // namespace

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed) {
  for (int p = 0; p < kNumFaultPoints; ++p) {
    // Independent stream per point: seed xor a point-specific odd constant, warmed one
    // step so adjacent seeds do not produce adjacent first draws.
    streams_[p] = seed ^ (0xa076bc9d7ae53d4bULL * static_cast<uint64_t>(p + 1));
    (void)NextDraw(&streams_[p]);
    ops_[p] = 0;
    rates_[p] = FaultRates{};
  }
}

void FaultInjector::SetRates(FaultPoint point, const FaultRates& rates) {
  MutexLock lock(mu_);
  rates_[static_cast<int>(point)] = rates;
}

FaultDecision FaultInjector::Decide(FaultPoint point) {
  const int p = static_cast<int>(point);
  MutexLock lock(mu_);
  const FaultRates& rates = rates_[p];
  const int64_t op = ++ops_[p];
  ++decisions_;

  FaultDecision decision;
  decision.delay_ms = rates.delay_ms;
  decision.tear_bytes = rates.tear_bytes;

  if (rates.every_n > 0 && op % rates.every_n == 0 &&
      rates.periodic_action != FaultAction::kNone) {
    decision.action = rates.periodic_action;
    ++injected_;
    return decision;
  }

  const double total = rates.fail + rates.tear + rates.delay + rates.stale;
  if (total <= 0.0) {
    decision.action = FaultAction::kNone;
    return decision;
  }
  // One draw per decision, even when it lands in the no-fault tail: the stream
  // position depends only on the operation count, never on earlier outcomes.
  const double u = UnitDouble(&streams_[p]);
  if (u < rates.fail) {
    decision.action = FaultAction::kFail;
  } else if (u < rates.fail + rates.tear) {
    decision.action = FaultAction::kTear;
  } else if (u < rates.fail + rates.tear + rates.delay) {
    decision.action = FaultAction::kDelay;
  } else if (u < total) {
    decision.action = FaultAction::kStale;
  } else {
    decision.action = FaultAction::kNone;
  }
  if (decision.action != FaultAction::kNone) {
    ++injected_;
  }
  return decision;
}

int64_t FaultInjector::decisions() const {
  MutexLock lock(mu_);
  return decisions_;
}

int64_t FaultInjector::injected() const {
  MutexLock lock(mu_);
  return injected_;
}

void InstallGlobalFaultInjector(std::shared_ptr<FaultInjector> injector) {
  MutexLock lock(g_global_mu);
  GlobalSlot() = std::move(injector);
}

std::shared_ptr<FaultInjector> GlobalFaultInjector() {
  MutexLock lock(g_global_mu);
  return GlobalSlot();
}

uint64_t FaultSeedFromEnv(uint64_t fallback) {
  const char* text = std::getenv("DCP_FAULT_SEED");
  if (text == nullptr || *text == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || (end != nullptr && *end != '\0')) {
    return fallback;
  }
  return static_cast<uint64_t>(parsed);
}

}  // namespace dcp
