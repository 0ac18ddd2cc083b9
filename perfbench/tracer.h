#pragma once
// In-memory span recorder for the benchmark. Spans are recorded from the
// benchmark's own files around the calls it makes into each library layer;
// nothing inside the library is instrumented. All spans are opened and
// closed on the benchmark's main thread (the library's worker pool runs
// inside the spans, never around them), so spans nest strictly and a span's
// self time is its duration minus the sum of its direct children.
//
// Recording is switched per step with set_enabled(): a disabled tracer costs
// one branch per call site and records nothing.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
public:
  struct Span {
    const char* name; // string literal (static lifetime)
    int parent;       // index of the enclosing span, -1 for a root
    int root;         // index of the outermost enclosing span
    Clock::time_point start, end;
  };

  /// Aggregate of every span with one name.
  struct Totals {
    long calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its index, or -1 when recording is off.
  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, parent, parent < 0 ? index : spans_[parent].root, Clock::now(), {}});
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[index].end = Clock::now();
    stack_.pop_back();
  }

  /// Per-name totals over the spans whose outermost ancestor is named
  /// `root_name` (the root spans themselves included).
  std::map<std::string, Totals> totals(const std::string& root_name) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_s[s.parent] += seconds_between(s.start, s.end);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (root_name != spans_[s.root].name) continue;
      Totals& t = out[s.name];
      const double d = seconds_between(s.start, s.end);
      ++t.calls;
      t.total_s += d;
      t.self_s += d - child_s[i];
    }
    return out;
  }

  /// Write every span as a Chrome trace event ("X" phase, microseconds
  /// since the first span). Returns false when the file cannot be opened.
  bool write_chrome_trace(const std::string& path) const {
    FILE* fp = std::fopen(path.c_str(), "w");
    if (!fp) return false;
    std::fputs("{\"traceEvents\":[\n", fp);
    const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(fp,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i ? ",\n" : "", s.name, 1e6 * seconds_between(t0, s.start),
                   1e6 * seconds_between(s.start, s.end));
    }
    std::fputs("\n]}\n", fp);
    return std::fclose(fp) == 0;
  }

private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer& tracer_;
  int index_;
};

} // namespace perfbench
