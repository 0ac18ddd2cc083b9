#pragma once
// Span tracer: per-thread ring buffers of nested begin/end spans with typed
// arguments (kernel name, grid/block dims, species, element count), exported
// as Chrome trace-event JSON (load in chrome://tracing or Perfetto) and as a
// collapsed self-time tree, which is the parent/child view of a run.
//
// TraceSpan is the one RAII type that times a scope. Constructed from a name
// it is a pure trace span; constructed from an obs::Timer (obs/metrics.h) it
// also adds its wall time and one call to that timer on every exit, traced or
// not, and the trace span carries the timer's name. The timers are the flat
// per-scope totals the component-time benches read (Table VII); the trace is
// the same scopes with their nesting.
//
// Cost model, mirroring the device checker's: with tracing off (the default)
// a name-only span is one relaxed atomic load of a global flag — no
// allocation, no clock read, no branch beyond the test; a timed span adds two
// steady_clock reads and two relaxed atomic adds (bench_trace_overhead
// measures the end-to-end slowdown at < 2% on a relaxation step). With
// tracing on, each span is two steady_clock reads plus one write into a
// thread-local ring buffer; no locks are taken on the hot path (the registry
// mutex is touched only when a thread's buffer is first created).
//
// Ring semantics: each thread owns a fixed-capacity buffer of *completed*
// spans; when it wraps, the oldest records are overwritten and a drop count
// is kept, so a long run keeps the most recent window — which is the window
// a trace viewer wants. Nesting is reconstructed at export time from the
// recorded (thread, depth, t0, t1), so overwriting old records never
// corrupts the tree.
//
// Enabling: LANDAU_TRACE=path.json in the environment (parsed on first
// Tracer use; the trace is written at process exit), -landau_trace in the
// examples, or programmatically:
//
//   obs::Tracer::instance().enable();
//   ... run ...
//   obs::Tracer::instance().write_chrome_trace("trace.json");
//   std::puts(obs::Tracer::instance().self_time_report().c_str());

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "exec/annotations.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace landau::obs {

/// One span argument: a static-storage key with an int or double value.
/// Keys must be string literals (or otherwise outlive the tracer) — the hot
/// path stores the pointer, never copies.
struct TraceArg {
  const char* key = nullptr;
  std::int64_t i = 0;
  double d = 0.0;
  bool is_double = false;

  TraceArg() = default;
  TraceArg(const char* k, int v) : key(k), i(v) {}
  TraceArg(const char* k, long v) : key(k), i(v) {}
  TraceArg(const char* k, long long v) : key(k), i(v) {}
  TraceArg(const char* k, unsigned v) : key(k), i(static_cast<std::int64_t>(v)) {}
  TraceArg(const char* k, std::size_t v) : key(k), i(static_cast<std::int64_t>(v)) {}
  TraceArg(const char* k, double v) : key(k), d(v), is_double(true) {}
};

inline constexpr int kMaxTraceArgs = 4;

/// One completed span as stored in a thread's ring buffer.
struct SpanRecord {
  const char* name = nullptr; // static storage or an obs::Timer's name
  std::int64_t t0_ns = 0, t1_ns = 0;
  std::int32_t tid = 0;
  std::int32_t depth = 0; // nesting depth at begin (0 = top level)
  std::int32_t n_args = 0;
  TraceArg args[kMaxTraceArgs];
};

/// Aggregated node of the collapsed self-time tree (merged across threads by
/// span-name path).
struct SpanTreeNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0; // total minus the time covered by child spans
  std::vector<SpanTreeNode> children;
};

namespace detail {
extern std::atomic<bool> g_trace_active;
} // namespace detail

/// The one query every instrumentation site makes first; compiled to a single
/// relaxed load, this is the whole cost of a disabled tracer.
inline bool tracing() { return detail::g_trace_active.load(std::memory_order_relaxed); }

class LANDAU_HOST_ONLY Tracer {
public:
  /// First access parses LANDAU_TRACE (non-empty value = output path,
  /// enables tracing and registers an at-exit Chrome-trace write).
  static Tracer& instance();

  void enable();
  void disable();
  bool enabled() const { return tracing(); }

  /// Output path configured via LANDAU_TRACE / set_path ("" = none).
  const std::string& path() const { return path_; }
  void set_path(std::string path) { path_ = std::move(path); }

  /// Per-thread ring capacity for buffers created *after* the call.
  void set_ring_capacity(std::size_t spans);
  std::size_t ring_capacity() const { return ring_capacity_.load(std::memory_order_relaxed); }

  /// Begin/end one span on the calling thread. `name` must outlive the
  /// tracer (string literal or an obs::Timer's name). No-ops when disabled;
  /// an end() without a live begin() is ignored (cross-enable unwind).
  void begin(const char* name) { begin(name, {}); }
  void begin(const char* name, std::initializer_list<TraceArg> args);
  void end();

  /// All completed spans currently held in the ring buffers, in t0 order.
  std::vector<SpanRecord> snapshot() const;
  /// Spans overwritten by ring wrap-around since the last clear().
  std::int64_t dropped() const;
  /// Discard all recorded spans (buffers stay registered).
  void clear();

  /// Merge the recorded spans into one self-time tree (threads merged by
  /// name path, children sorted by total time descending).
  SpanTreeNode build_tree() const;
  /// Indented text rendering of build_tree() — the hierarchical view the
  /// flat timer totals cannot provide across threads.
  std::string self_time_report() const;

  /// Chrome trace-event JSON (an array of "X" complete events); loads in
  /// chrome://tracing and Perfetto. Returns the document for tests.
  JsonValue chrome_trace() const;
  void write_chrome_trace(const std::string& path) const;

private:
  Tracer();
  Tracer(const Tracer&) = delete;

  std::string path_;
  std::atomic<std::size_t> ring_capacity_{1u << 15};
};

/// RAII span. Name-only: the disabled path is a single flag test per
/// constructor. Timed: always adds its duration to the timer, and records a
/// span under the timer's name when tracing is on.
class TraceSpan {
public:
  explicit TraceSpan(const char* name) {
    if (tracing()) {
      live_ = true;
      Tracer::instance().begin(name);
    }
  }
  TraceSpan(const char* name, std::initializer_list<TraceArg> args) {
    if (tracing()) {
      live_ = true;
      Tracer::instance().begin(name, args);
    }
  }
  explicit TraceSpan(Timer& timer) : TraceSpan(timer, {}) {}
  TraceSpan(Timer& timer, std::initializer_list<TraceArg> args)
      : timer_(&timer), t0_(std::chrono::steady_clock::now()) {
    if (tracing()) {
      live_ = true;
      Tracer::instance().begin(timer.name().c_str(), args);
    }
  }
  ~TraceSpan() {
    if (live_) Tracer::instance().end();
    if (timer_)
      timer_->add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

private:
  Timer* timer_ = nullptr;
  std::chrono::steady_clock::time_point t0_{};
  bool live_ = false;
};

} // namespace landau::obs
