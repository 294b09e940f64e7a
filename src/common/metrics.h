// The DCP observability layer: a process-global registry of named, labeled
// instruments (counters, gauges, log2-bucketed latency histograms) plus
// per-request phase tracing. The paper's evaluation is a time decomposition
// (fig18/fig22: where do a request's milliseconds go — cache probe, store read,
// coarsen/initial/refine, encode, drain); this module makes the running system
// answer the same question live, per tenant and per serve tier, without putting
// measurable work on the repeat-batch cache-hit path.
//
// Design rules the rest of the tree relies on:
//   - Instrument pointers returned by a Registry are stable for the registry's
//     lifetime: callers resolve once (constructor / function-local static) and
//     then record with plain relaxed atomics — no lock, no lookup, no branch on
//     the hot path beyond one relaxed flag load.
//   - Counters and gauges are ALWAYS live: the typed stats structs
//     (PlanCacheStats, PlanServerStats, ReplicaSetStats, PlanClientStats) are
//     in-process views over registry counters, so disabling metrics must not
//     make stats lie, and a scrape is the only remote observability surface.
//     SetRecordingEnabled(false) only turns off *latency timing* (the clock
//     reads), which is the only part with hit-path-visible cost; bench_report
//     uses it to price the overhead.
//   - All latency histograms record MICROSECONDS; instrument names carry a
//     `_us` suffix so scrapes are self-describing.
//   - This file is the one blessed home of steady_clock (dcp_lint's `timing`
//     rule): components take timestamps via MonotonicNanos/Micros/Millis so
//     every timing span in the tree is greppable and mockable in one place.
//
// Naming scheme (see README "Observability"): dcp_<component>_<what>[_unit]
// with `_total` for counters, e.g. dcp_engine_cache_hits_total{tenant="alpha"},
// dcp_server_plan_latency_us{tenant="alpha",source="memory_cache"}.
#ifndef DCP_COMMON_METRICS_H_
#define DCP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace dcp {
namespace metrics {

// ---------------------------------------------------------------------------
// Clocks. The one steady_clock call site in src/ outside tests and benches.
// ---------------------------------------------------------------------------

int64_t MonotonicNanos();
int64_t MonotonicMicros();
int64_t MonotonicMillis();

// Latency-timing master switch (counters/gauges are unaffected; see file
// comment). Relaxed atomic; flipping it mid-flight is safe and only affects
// spans started afterwards.
void SetRecordingEnabled(bool enabled);
bool RecordingEnabled();

// Process-unique request/trace id: never 0, unique within a process, seeded
// from the monotonic clock so ids from different processes rarely collide.
uint64_t NextTraceId();

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

struct Label {
  std::string key;
  std::string value;
  friend bool operator==(const Label&, const Label&) = default;
};

// Monotonically increasing value. Add() is a single relaxed fetch_add; callers
// that need a coherent multi-counter snapshot (Engine::cache_stats) get it by
// doing their Add()s under the lock the snapshot holds — atomic storage keeps
// readers tear-free, the caller's lock keeps them coherent.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Instantaneous value (queue depth, outbox bytes). Set/Add are relaxed.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed log2 bucket layout shared by every histogram so snapshots merge by
// element-wise addition. Bucket i holds values v (microseconds) with
// UpperBound(i-1) < v <= UpperBound(i); UpperBound(i) = 2^i us for i in
// [0, kHistogramBuckets-2] (1us .. ~17.9min), last bucket is +Inf.
inline constexpr int kHistogramBuckets = 32;
int64_t HistogramBucketUpperMicros(int bucket);  // Last bucket: INT64_MAX.
int HistogramBucketFor(int64_t micros);

struct HistogramSnapshot {
  std::array<int64_t, kHistogramBuckets> buckets{};
  int64_t sum_micros = 0;

  // Derived from the buckets of THIS snapshot, so `+Inf cumulative == count`
  // holds exactly even when the snapshot raced concurrent Record()s.
  int64_t count() const;
  void Merge(const HistogramSnapshot& other);
  // p in [0, 100]. Linear interpolation within the winning bucket; returns 0
  // for an empty snapshot. Resolution is the log2 bucket width by design.
  double PercentileMicros(double p) const;
};

class Histogram {
 public:
  void Record(int64_t micros) {
    buckets_[HistogramBucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros > 0 ? micros : 0, std::memory_order_relaxed);
  }
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<int64_t> sum_micros_{0};
};

// RAII latency span: resolves the enabled flag once at construction and
// becomes a complete no-op when timing is disabled or the histogram is null
// (instruments are optional in components that can run registry-less).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist)
      : hist_(hist != nullptr && RecordingEnabled() ? hist : nullptr),
        start_ns_(hist_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) {
      hist_->Record((MonotonicNanos() - start_ns_) / 1000);
    }
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  int64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

// Owns instruments keyed by (name, labels); Get* registers on first use and
// returns the same stable pointer forever after (instruments are never
// erased). A registry can carry const labels stamped onto every instrument at
// scrape time (an Engine's per-tenant child registry), and child registries
// attach to the process-global one by weak_ptr so a scrape walks live children
// and merges families without keeping dead components alive.
//
// Lock discipline: mu_ is a leaf lock — held only across map lookups and
// snapshot copies, never while calling out or locking another registry.
class Registry {
 public:
  explicit Registry(std::vector<Label> const_labels = {});
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // `help` is kept from the first registration of `name`.
  Counter* GetCounter(std::string_view name, std::vector<Label> labels = {},
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::vector<Label> labels = {},
                  std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::vector<Label> labels = {},
                          std::string_view help = "");

  // Attach a child whose instruments are included (with its const labels) in
  // this registry's scrapes while the shared_ptr stays alive elsewhere.
  void Attach(const std::shared_ptr<Registry>& child);

  // Prometheus text exposition of this registry plus live attached children.
  // Identical (name, labels) series from different children merge by summing
  // (counters/gauges) or bucket-wise addition (histograms). Families print in
  // name order, series in label order: scrapes are diffable. `name_filter` is
  // a prefix filter on the family name ("" = everything).
  std::string RenderPrometheus(std::string_view name_filter = "") const;

  const std::vector<Label>& const_labels() const { return const_labels_; }

  // The process-global registry: the scrape endpoint (`kMetricsRequest`),
  // `dcpctl serve --metrics-dump-ms`, and free-function instruments all go
  // through here.
  static Registry& Global();
  // Convenience: new Registry with `const_labels`, attached to Global().
  static std::shared_ptr<Registry> NewAttached(std::vector<Label> const_labels);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    std::string name;
    std::vector<Label> labels;  // Sorted by key at registration.
    std::string help;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };
  struct Series;   // Render-time value of one (name, labels) line.
  struct Family;   // Render-time group: name, kind, help, merged series.

  Instrument* GetOrCreate(Kind kind, std::string_view name,
                          std::vector<Label> labels, std::string_view help);
  void Collect(std::vector<Family>* families) const;

  const std::vector<Label> const_labels_;
  mutable Mutex mu_;
  // unique_ptr elements: pointers stay stable as the vector grows.
  std::vector<std::unique_ptr<Instrument>> instruments_ DCP_GUARDED_BY(mu_);
  std::vector<std::weak_ptr<Registry>> children_ DCP_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Per-request phase tracing.
// ---------------------------------------------------------------------------

// The fixed phase vocabulary of a planning request's life, matching the
// paper's time decomposition. Kept dense so a Trace stores spans in a flat
// array and the scrape aggregates per phase with zero allocation.
enum class TracePhase {
  kQueueWait = 0,   // Admission -> worker pickup.
  kCacheProbe,      // Signature hash + plan LRU lookup.
  kStoreRead,       // PlanStore disk read + decode on a cache miss.
  kPlanCoarsen,     // Partitioner multilevel coarsening.
  kPlanInitial,     // Initial partition of the coarsest level.
  kPlanRefine,      // Uncoarsening + refinement sweeps.
  kPlanOther,       // Rest of PlanBatch (blocks, schedule, compile, validate).
  kEncode,          // Plan record serialization for the wire.
  kWriteDrain,      // Response queued on the outbox -> fully written.
  kPhaseCount,      // Not a phase.
};
inline constexpr int kTracePhaseCount = static_cast<int>(TracePhase::kPhaseCount);
const char* TracePhaseName(TracePhase phase);

// One request's record. Created at admission, carried through the worker and
// the outbox, finalized when the response drains.
struct Trace {
  uint64_t trace_id = 0;
  std::string tenant;
  std::string source;  // Serve tier ("memory_cache", "planned", ...) or error code.
  int64_t start_us = 0;  // MonotonicMicros at admission.
  int64_t total_us = 0;  // Filled at finalization.
  bool ok = true;
  std::array<int64_t, kTracePhaseCount> phase_us{};

  void AddPhase(TracePhase phase, int64_t us) {
    phase_us[static_cast<int>(phase)] += us;
  }
};

// One line: "trace=... tenant=... source=... total_us=... phase=us ...".
// Shared by the slow-request log and `dcpctl` trace printing.
std::string FormatTrace(const Trace& trace);

// Ambient current trace, thread-local. The server worker scopes the request's
// trace around Engine::PlanWithBlockSize; Engine / planner / store record phases into
// whatever is current (no-op when nothing is, e.g. direct library use).
class TraceContext {
 public:
  static Trace* Current();

  // RAII: installs `trace` as Current() on this thread, restores on exit.
  class Scope {
   public:
    explicit Scope(Trace* trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* previous_;
  };
};

// Adds `us` to `phase` of the ambient trace (if any) AND to the global
// per-phase span counter dcp_phase_us_total{phase=...}, so phase totals are
// scrapeable even for untraced (library-direct) requests.
void RecordPhase(TracePhase phase, int64_t us);
// Same, against an explicit trace (nullable) instead of the ambient one — for
// spans finalized on a thread the trace was never ambient on (write-drain runs
// on the IO loop, not the worker that owned the scope).
void RecordPhase(Trace* trace, TracePhase phase, int64_t us);

// RAII phase span against the ambient trace; no-op when timing is disabled
// AND no trace is current (a live trace always gets its spans).
class ScopedPhase {
 public:
  explicit ScopedPhase(TracePhase phase)
      : phase_(phase),
        active_(TraceContext::Current() != nullptr || RecordingEnabled()),
        start_ns_(active_ ? MonotonicNanos() : 0) {}
  ~ScopedPhase() {
    if (active_) {
      RecordPhase(phase_, (MonotonicNanos() - start_ns_) / 1000);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TracePhase phase_;
  bool active_;
  int64_t start_ns_;
};

// Bounded ring of recent finalized traces (newest kept, oldest overwritten).
class TraceRing {
 public:
  explicit TraceRing(int capacity = 256);

  void Push(Trace trace);
  // Newest first.
  std::vector<Trace> Snapshot() const;
  int64_t total_pushed() const;

 private:
  mutable Mutex mu_;  // Leaf lock.
  std::vector<Trace> ring_ DCP_GUARDED_BY(mu_);
  int capacity_;
  int64_t next_ DCP_GUARDED_BY(mu_) = 0;
};

}  // namespace metrics
}  // namespace dcp

#endif  // DCP_COMMON_METRICS_H_
