// In-memory span recording for dcpbench's traced runs. Spans are opened and closed by
// the benchmark around calls into each layer's public functions (nothing inside the
// library is instrumented), kept per thread in memory, and rolled up or written as Chrome
// trace-event JSON once the run is over.
//
// Every span carries the op it belongs to; a span named "op" is the root of one op, and
// its self time (duration minus its children) is the op's unattributed time.
#ifndef DCPBENCH_DCPBENCH_TRACE_H_
#define DCPBENCH_DCPBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcp::bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t op = -1;
  int32_t parent = -1;  // Index into the collected span list; -1 for a root.
  int32_t thread = 0;
};

class SpanRecorder {
 public:
  // Spans opened while recording is off are not kept.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span under the innermost open span of this thread. Returns its handle, or
  // -1 when recording is off.
  int32_t Open(const char* name, int64_t op) {
    if (!enabled()) {
      return -1;
    }
    ThreadLog& log = Local();
    Span span;
    span.name = name;
    span.op = op;
    span.parent = log.open.empty() ? -1 : log.open.back();
    span.thread = log.thread;
    span.start_ns = NowNs();
    log.spans.push_back(span);
    log.open.push_back(static_cast<int32_t>(log.spans.size() - 1));
    return log.open.back();
  }

  void Close(int32_t handle) {
    if (handle < 0) {
      return;
    }
    ThreadLog& log = Local();
    log.spans[static_cast<size_t>(handle)].end_ns = NowNs();
    log.open.pop_back();
  }

  // Records an already-finished child of the innermost open span: for a stage whose
  // duration the callee reports rather than the benchmark observes.
  void AddChild(const char* name, int64_t start_ns, int64_t end_ns) {
    if (!enabled()) {
      return;
    }
    ThreadLog& log = Local();
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.parent = log.open.empty() ? -1 : log.open.back();
    span.op = span.parent < 0 ? -1 : log.spans[static_cast<size_t>(span.parent)].op;
    span.thread = log.thread;
    log.spans.push_back(span);
  }

  // Every thread's spans with parents renumbered into the combined list. Call only when
  // no thread is recording.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& log : logs_) {
      const int32_t offset = static_cast<int32_t>(all.size());
      for (Span span : log->spans) {
        if (span.parent >= 0) {
          span.parent += offset;
        }
        all.push_back(span);
      }
    }
    return all;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& log : logs_) {
      log->spans.clear();
      log->open.clear();
    }
  }

 private:
  struct ThreadLog {
    int32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };

  ThreadLog& Local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<int32_t>(logs_.size());
    }
    return *log;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // Guarded by mu_; entries never move.
};

// The one recorder of the process (a thread's log is bound to it on first use).
inline SpanRecorder& Tracer() {
  static SpanRecorder recorder;
  return recorder;
}

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t op) : handle_(Tracer().Open(name, op)) {}
  ~ScopedSpan() { Tracer().Close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t handle_;
};

// Self time per span name, over every span and over the spans inside "op" roots, plus
// the per-op ledger: the wall time of the "op" roots and their own self time (the
// unattributed part).
struct SelfTimeRollup {
  std::map<std::string, double> self_ms;     // Total self time per span name.
  std::map<std::string, int64_t> count;      // Spans per name.
  std::map<std::string, double> op_self_ms;  // The part of self_ms inside "op" roots.
  int64_t ops = 0;
  double op_wall_ms = 0.0;       // Total over "op" roots.
  double unattributed_ms = 0.0;  // Total "op" self time.

  double MeanPerCall(const std::string& name) const {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second / static_cast<double>(count.at(name));
  }
};

inline SelfTimeRollup RollUp(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // A parent always precedes its children in the collected list.
    root[i] = span.parent < 0 ? i : root[static_cast<size_t>(span.parent)];
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    }
  }
  SelfTimeRollup rollup;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double wall_ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    const double self_ms = wall_ms - child_ms[i];
    rollup.self_ms[span.name] += self_ms;
    ++rollup.count[span.name];
    if (std::string_view(spans[root[i]].name) != "op") {
      continue;
    }
    rollup.op_self_ms[span.name] += self_ms;
    if (span.parent < 0) {
      ++rollup.ops;
      rollup.op_wall_ms += wall_ms;
      rollup.unattributed_ms += self_ms;
    }
  }
  return rollup;
}

// Chrome trace-event JSON ("X" complete events, microsecond timestamps); open it in
// chrome://tracing or Perfetto. Each event's args name its op, its own id and its parent.
inline bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                             const std::string& process_name) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  std::fprintf(out,
               "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"op\":%lld,\"id\":%zu,\"parent\":%d}}",
                 span.name, span.thread,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 static_cast<long long>(span.op), i, span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace dcp::bench

#endif  // DCPBENCH_DCPBENCH_TRACE_H_
