#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "common/rng.h"

namespace dcp {
namespace metrics {
namespace {

std::atomic<bool> g_recording_enabled{true};

// Merged (const + instrument) labels rendered as `k="v",k2="v2"`, values
// escaped per the Prometheus text format. Instrument labels win on key
// collision; keys print in sorted order so scrapes are diffable.
void AppendEscaped(std::string* out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

std::string RenderLabelString(const std::vector<Label>& const_labels,
                              const std::vector<Label>& labels) {
  std::map<std::string, const std::string*> merged;
  for (const Label& label : const_labels) merged[label.key] = &label.value;
  for (const Label& label : labels) merged[label.key] = &label.value;
  std::string out;
  for (const auto& [key, value] : merged) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    AppendEscaped(&out, *value);
    out += '"';
  }
  return out;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

}  // namespace

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

int64_t MonotonicMillis() { return MonotonicNanos() / 1000000; }

void SetRecordingEnabled(bool enabled) {
  g_recording_enabled.store(enabled, std::memory_order_relaxed);
}

bool RecordingEnabled() {
  return g_recording_enabled.load(std::memory_order_relaxed);
}

uint64_t NextTraceId() {
  static const uint64_t process_seed =
      SplitMix64(static_cast<uint64_t>(MonotonicNanos()));
  static std::atomic<uint64_t> sequence{0};
  const uint64_t id = SplitMix64(
      process_seed ^ sequence.fetch_add(0x9E3779B97F4A7C15ull,
                                        std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

int64_t HistogramBucketUpperMicros(int bucket) {
  if (bucket >= kHistogramBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return int64_t{1} << bucket;
}

int HistogramBucketFor(int64_t micros) {
  if (micros <= 1) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(micros - 1));
  return width >= kHistogramBuckets - 1 ? kHistogramBuckets - 1 : width;
}

int64_t HistogramSnapshot::count() const {
  int64_t total = 0;
  for (int64_t b : buckets) total += b;
  return total;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  sum_micros += other.sum_micros;
}

double HistogramSnapshot::PercentileMicros(double p) const {
  const int64_t n = count();
  if (n <= 0) return 0.0;
  double target = (p / 100.0) * static_cast<double>(n);
  if (target < 1.0) target = 1.0;
  if (target > static_cast<double>(n)) target = static_cast<double>(n);
  int64_t cumulative = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double lower =
          i == 0 ? 0.0
                 : static_cast<double>(HistogramBucketUpperMicros(i - 1));
      if (i == kHistogramBuckets - 1) {
        return lower;  // Open-ended bucket: report its lower edge.
      }
      const double upper = static_cast<double>(HistogramBucketUpperMicros(i));
      const double within = (target - static_cast<double>(cumulative)) /
                            static_cast<double>(in_bucket);
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(HistogramBucketUpperMicros(kHistogramBuckets - 2));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  return snap;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct Registry::Series {
  std::string labels;  // Pre-rendered, const labels already merged in.
  int64_t value = 0;
  HistogramSnapshot hist;
};

struct Registry::Family {
  std::string name;
  Kind kind = Kind::kCounter;
  std::string help;
  std::vector<Series> series;
};

Registry::Registry(std::vector<Label> const_labels)
    : const_labels_(std::move(const_labels)) {}

Registry::Instrument* Registry::GetOrCreate(Kind kind, std::string_view name,
                                            std::vector<Label> labels,
                                            std::string_view help) {
  std::stable_sort(labels.begin(), labels.end(),
                   [](const Label& a, const Label& b) { return a.key < b.key; });
  MutexLock lock(mu_);
  // Linear probe over a flat vector: registration is rare (construction time
  // or first sight of a tenant/source), recording never comes back here.
  for (const auto& instrument : instruments_) {
    if (instrument->kind == kind && instrument->name == name &&
        instrument->labels == labels) {
      return instrument.get();
    }
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = kind;
  instrument->name = std::string(name);
  instrument->labels = std::move(labels);
  instrument->help = std::string(help);
  instruments_.push_back(std::move(instrument));
  return instruments_.back().get();
}

Counter* Registry::GetCounter(std::string_view name, std::vector<Label> labels,
                              std::string_view help) {
  return &GetOrCreate(Kind::kCounter, name, std::move(labels), help)->counter;
}

Gauge* Registry::GetGauge(std::string_view name, std::vector<Label> labels,
                          std::string_view help) {
  return &GetOrCreate(Kind::kGauge, name, std::move(labels), help)->gauge;
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::vector<Label> labels,
                                  std::string_view help) {
  return &GetOrCreate(Kind::kHistogram, name, std::move(labels), help)
              ->histogram;
}

void Registry::Attach(const std::shared_ptr<Registry>& child) {
  MutexLock lock(mu_);
  std::erase_if(children_,
                [](const std::weak_ptr<Registry>& w) { return w.expired(); });
  children_.push_back(child);
}

void Registry::Collect(std::vector<Family>* families) const {
  // Copy stable pointers out under the leaf lock, read atomics after. Children
  // are collected after mu_ is released so no two registry locks ever nest.
  std::vector<Instrument*> instruments;
  std::vector<std::shared_ptr<Registry>> children;
  {
    MutexLock lock(mu_);
    instruments.reserve(instruments_.size());
    for (const auto& instrument : instruments_) {
      instruments.push_back(instrument.get());
    }
    for (const auto& weak : children_) {
      if (std::shared_ptr<Registry> child = weak.lock()) {
        children.push_back(std::move(child));
      }
    }
  }
  for (Instrument* instrument : instruments) {
    Family family;
    family.name = instrument->name;
    family.kind = instrument->kind;
    family.help = instrument->help;
    Series series;
    series.labels = RenderLabelString(const_labels_, instrument->labels);
    switch (instrument->kind) {
      case Kind::kCounter: series.value = instrument->counter.value(); break;
      case Kind::kGauge: series.value = instrument->gauge.value(); break;
      case Kind::kHistogram: series.hist = instrument->histogram.Snapshot(); break;
    }
    family.series.push_back(std::move(series));
    families->push_back(std::move(family));
  }
  for (const auto& child : children) {
    child->Collect(families);
  }
}

std::string Registry::RenderPrometheus(std::string_view name_filter) const {
  std::vector<Family> raw;
  Collect(&raw);

  // Merge by family name, then by label string within the family. Ordered maps
  // keep the exposition deterministic for diffing and for the validator.
  std::map<std::string, Family> families;
  for (Family& family : raw) {
    if (!name_filter.empty() &&
        family.name.compare(0, name_filter.size(), name_filter) != 0) {
      continue;
    }
    auto [it, inserted] = families.try_emplace(family.name, Family{});
    Family& merged = it->second;
    if (inserted) {
      merged.name = family.name;
      merged.kind = family.kind;
      merged.help = family.help;
    } else if (merged.kind != family.kind) {
      continue;  // Name reused with a different kind; first registration wins.
    }
    for (Series& series : family.series) {
      auto same = std::find_if(
          merged.series.begin(), merged.series.end(),
          [&](const Series& s) { return s.labels == series.labels; });
      if (same == merged.series.end()) {
        merged.series.push_back(std::move(series));
      } else if (merged.kind == Kind::kHistogram) {
        same->hist.Merge(series.hist);
      } else {
        same->value += series.value;
      }
    }
  }

  std::string out;
  for (auto& [name, family] : families) {
    std::sort(family.series.begin(), family.series.end(),
              [](const Series& a, const Series& b) { return a.labels < b.labels; });
    out += "# HELP " + name + " " +
           (family.help.empty() ? std::string("(no help)") : family.help) + "\n";
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const Series& series : family.series) {
      if (family.kind == Kind::kHistogram) {
        int64_t cumulative = 0;
        for (int i = 0; i < kHistogramBuckets; ++i) {
          cumulative += series.hist.buckets[i];
          out += name + "_bucket{" + series.labels;
          if (!series.labels.empty()) out += ',';
          out += "le=\"";
          if (i == kHistogramBuckets - 1) {
            out += "+Inf";
          } else {
            AppendInt(&out, HistogramBucketUpperMicros(i));
          }
          out += "\"} ";
          AppendInt(&out, cumulative);
          out += '\n';
        }
        const std::string suffix =
            series.labels.empty() ? "" : "{" + series.labels + "}";
        out += name + "_sum" + suffix + " ";
        AppendInt(&out, series.hist.sum_micros);
        out += '\n';
        out += name + "_count" + suffix + " ";
        AppendInt(&out, series.hist.count());
        out += '\n';
      } else {
        out += name;
        if (!series.labels.empty()) out += "{" + series.labels + "}";
        out += ' ';
        AppendInt(&out, series.value);
        out += '\n';
      }
    }
  }
  return out;
}

Registry& Registry::Global() {
  // Intentionally leaked: instruments resolved into static pointers anywhere
  // in the process must outlive every static destructor.
  static Registry* global = new Registry();
  return *global;
}

std::shared_ptr<Registry> Registry::NewAttached(std::vector<Label> const_labels) {
  auto child = std::make_shared<Registry>(std::move(const_labels));
  Global().Attach(child);
  return child;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kQueueWait: return "queue_wait";
    case TracePhase::kCacheProbe: return "cache_probe";
    case TracePhase::kStoreRead: return "store_read";
    case TracePhase::kPlanCoarsen: return "plan_coarsen";
    case TracePhase::kPlanInitial: return "plan_initial";
    case TracePhase::kPlanRefine: return "plan_refine";
    case TracePhase::kPlanOther: return "plan_other";
    case TracePhase::kEncode: return "encode";
    case TracePhase::kWriteDrain: return "write_drain";
    case TracePhase::kPhaseCount: break;
  }
  return "unknown";
}

std::string FormatTrace(const Trace& trace) {
  char head[128];
  std::snprintf(head, sizeof(head), "trace=%016llx",
                static_cast<unsigned long long>(trace.trace_id));
  std::string out(head);
  out += " tenant=" + (trace.tenant.empty() ? std::string("-") : trace.tenant);
  out += " source=" + (trace.source.empty() ? std::string("-") : trace.source);
  out += trace.ok ? " ok=1" : " ok=0";
  out += " total_us=";
  AppendInt(&out, trace.total_us);
  for (int i = 0; i < kTracePhaseCount; ++i) {
    if (trace.phase_us[i] == 0) continue;
    out += ' ';
    out += TracePhaseName(static_cast<TracePhase>(i));
    out += "_us=";
    AppendInt(&out, trace.phase_us[i]);
  }
  return out;
}

namespace {
thread_local Trace* g_current_trace = nullptr;
}  // namespace

Trace* TraceContext::Current() { return g_current_trace; }

TraceContext::Scope::Scope(Trace* trace) : previous_(g_current_trace) {
  g_current_trace = trace;
}

TraceContext::Scope::~Scope() { g_current_trace = previous_; }

void RecordPhase(TracePhase phase, int64_t us) {
  RecordPhase(TraceContext::Current(), phase, us);
}

void RecordPhase(Trace* trace, TracePhase phase, int64_t us) {
  if (phase >= TracePhase::kPhaseCount || us < 0) return;
  if (trace != nullptr) {
    trace->AddPhase(phase, us);
  }
  static std::array<Counter*, kTracePhaseCount>* const phase_counters = [] {
    auto* counters = new std::array<Counter*, kTracePhaseCount>();
    for (int i = 0; i < kTracePhaseCount; ++i) {
      (*counters)[i] = Registry::Global().GetCounter(
          "dcp_phase_us_total",
          {{"phase", TracePhaseName(static_cast<TracePhase>(i))}},
          "Cumulative request phase span time in microseconds");
    }
    return counters;
  }();
  (*phase_counters)[static_cast<int>(phase)]->Add(us);
}

TraceRing::TraceRing(int capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

void TraceRing::Push(Trace trace) {
  MutexLock lock(mu_);
  if (ring_.size() < static_cast<size_t>(capacity_)) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[static_cast<size_t>(next_ % capacity_)] = std::move(trace);
  }
  ++next_;
}

std::vector<Trace> TraceRing::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Trace> out;
  out.reserve(ring_.size());
  // Newest first: walk backwards from the last written slot.
  const int64_t n = static_cast<int64_t>(ring_.size());
  for (int64_t i = 0; i < n; ++i) {
    const int64_t slot = (next_ - 1 - i) % capacity_;
    out.push_back(ring_[static_cast<size_t>((slot + capacity_) % capacity_)]);
  }
  return out;
}

int64_t TraceRing::total_pushed() const {
  MutexLock lock(mu_);
  return next_;
}

}  // namespace metrics
}  // namespace dcp
