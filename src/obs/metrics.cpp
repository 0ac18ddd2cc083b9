#include "obs/metrics.h"

#include <cstdlib>

#include "util/logging.h"

namespace landau::obs {

Histogram::Histogram(std::string name, std::vector<double> edges)
    : name_(std::move(name)), edges_(std::move(edges)) {
  // One bucket per edge plus the overflow bucket; zero edges is legal (a
  // count/sum-only histogram).
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i) buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double x) {
  std::size_t i = 0;
  while (i < edges_.size() && x > edges_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; keep a CAS loop for toolchains
  // where it is not lock-free-native.
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + x, std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

void Histogram::reset() {
  for (std::size_t i = 0; i <= edges_.size(); ++i) buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* r = new MetricsRegistry; // leaked: atexit-safe
  return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_)
    if (c->name() == name) return *c;
  counters_.push_back(std::make_unique<Counter>(name));
  return *counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : gauges_)
    if (g->name() == name) return *g;
  gauges_.push_back(std::make_unique<Gauge>(name));
  return *gauges_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& h : histograms_)
    if (h->name() == name) return *h;
  histograms_.push_back(std::make_unique<Histogram>(name, std::move(edges)));
  return *histograms_.back();
}

Timer& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : timers_)
    if (t->name() == name) return *t;
  timers_.push_back(std::make_unique<Timer>(name));
  return *timers_.back();
}

JsonValue MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue out = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& c : counters_) counters.set(c->name(), static_cast<long long>(c->value()));
  out.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const auto& g : gauges_) gauges.set(g->name(), g->value());
  out.set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::object();
  for (const auto& h : histograms_) {
    JsonValue hj = JsonValue::object();
    hj.set("count", static_cast<long long>(h->count()));
    hj.set("sum", h->sum());
    JsonValue edges = JsonValue::array();
    for (double e : h->edges()) edges.push_back(e);
    hj.set("edges", std::move(edges));
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i <= h->edges().size(); ++i)
      buckets.push_back(static_cast<long long>(h->bucket(i)));
    hj.set("buckets", std::move(buckets));
    histograms.set(h->name(), std::move(hj));
  }
  out.set("histograms", std::move(histograms));
  JsonValue timers = JsonValue::object();
  for (const auto& t : timers_) {
    JsonValue tj = JsonValue::object();
    tj.set("count", static_cast<long long>(t->count()));
    tj.set("seconds", t->seconds());
    timers.set(t->name(), std::move(tj));
  }
  out.set("timers", std::move(timers));
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) c->reset();
  for (const auto& g : gauges_) g->reset();
  for (const auto& h : histograms_) h->reset();
  for (const auto& t : timers_) t->reset();
}

StepLog::StepLog() {
  if (const char* env = std::getenv("LANDAU_STEP_LOG"); env && *env) set_path(env);
}

StepLog& StepLog::instance() {
  static StepLog* log = new StepLog; // leaked: usable from static dtors
  return *log;
}

void StepLog::set_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.store(false, std::memory_order_relaxed);
  out_.reset();
  path_ = path;
  if (path_.empty()) return;
  out_ = std::make_unique<std::ofstream>(path_, std::ios::trunc);
  if (!*out_) {
    LANDAU_WARN("step log: cannot open '" << path_ << "'");
    out_.reset();
    return;
  }
  active_.store(true, std::memory_order_relaxed);
}

void StepLog::write(const JsonValue& record) {
  if (!active()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_) return;
  *out_ << record.dump() << "\n";
  out_->flush(); // NDJSON contract: a crashed run keeps every accepted step
}

} // namespace landau::obs
