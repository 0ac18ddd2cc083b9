#pragma once
// Metrics registry: named counters, gauges, fixed-bucket histograms and
// timers that the solver and quench layers update every step (Newton
// iterations, GMRES iterations, dt, StepController rejections/retries,
// checkpoint writes, per-kernel arithmetic intensity, the wall time of every
// timed scope), plus the NDJSON step logger that samples them once per
// accepted time step.
//
// Cost model: metric updates are relaxed atomics and are always on (the
// counters are the telemetry of record — PETSc's -log_view counters are
// likewise unconditional). Handles are resolved once by name and cached at
// the call site (the registry hands out stable references), so the hot path
// never touches the name map. Timers are fed by timed spans (obs/trace.h:
// TraceSpan(Timer&)), so one RAII object both accumulates a scope's totals
// and, with tracing on, records it in the span trace. The *sampling* side —
// serializing a step record to NDJSON — is gated: StepLog::active() is a
// flag test, and with no log configured (the default) QuenchModel pays
// exactly that test per step.
//
// Step log: LANDAU_STEP_LOG=path.ndjson in the environment (parsed on first
// use), -landau_step_log in the examples, or set_path() programmatically.
// Each line is one self-contained JSON object; the schema is asserted by
// tests/test_obs.cpp and validated by the telemetry ctest
// (tests/check_telemetry.py).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace landau::obs {

/// Monotonic counter (relaxed atomics; merged across threads).
class Counter {
public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void inc(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

/// Last-value gauge (doubles; relaxed store/load).
class Gauge {
public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Accumulated wall time of one named scope: call count and nanoseconds
/// (relaxed atomics; merged across threads, so nested or concurrent scopes
/// each add their full duration and no hierarchy is implied).
class Timer {
public:
  explicit Timer(std::string name) : name_(std::move(name)) {}
  void add(std::int64_t ns) {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t ns() const { return ns_.load(std::memory_order_relaxed); }
  double seconds() const { return 1e-9 * static_cast<double>(ns()); }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    ns_.store(0, std::memory_order_relaxed);
  }
  /// Also the span name; the string lives as long as the registry (process
  /// life), so the tracer may hold its c_str().
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// x <= edges[i] (first matching edge); the final overflow bucket counts
/// x > edges.back(). Also tracks count and sum for mean recovery.
class Histogram {
public:
  Histogram(std::string name, std::vector<double> edges);

  void observe(double x);
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& edges() const { return edges_; }
  /// Bucket i of edges().size() + 1 (the last is the overflow bucket).
  std::int64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Global get-or-create registry; returned references are stable for process
/// life, so call sites resolve once and cache.
class MetricsRegistry {
public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; the edges of an existing histogram are NOT rebucketed —
  /// first registration wins (matching the counters' process-life contract).
  Histogram& histogram(const std::string& name, std::vector<double> edges);
  Timer& timer(const std::string& name);

  /// All metrics as one JSON object: counters as integers, gauges as
  /// doubles, histograms as {count, sum, edges, buckets}, timers as
  /// {count, seconds}.
  JsonValue to_json() const;

  /// Zero every metric (names and handles stay valid). Bench phases only.
  void reset();

private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::unique_ptr<Timer>> timers_;
};

/// NDJSON step log: one JSON object per line, flushed per record so a crashed
/// run keeps every accepted step. Disabled (active() == false) unless a path
/// is configured via LANDAU_STEP_LOG or set_path().
class StepLog {
public:
  /// Global instance; first access parses LANDAU_STEP_LOG.
  static StepLog& instance();

  bool active() const { return active_.load(std::memory_order_relaxed); }
  const std::string& path() const { return path_; }

  /// Open `path` for appending ("" closes and deactivates).
  void set_path(const std::string& path);

  /// Write one record as a single NDJSON line (no-op when inactive).
  void write(const JsonValue& record);

private:
  StepLog();

  std::mutex mu_;
  std::string path_;
  std::atomic<bool> active_{false};
  std::unique_ptr<std::ofstream> out_;
};

/// Simple stopwatch for ad-hoc timing.
class Stopwatch {
public:
  Stopwatch() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

} // namespace landau::obs
