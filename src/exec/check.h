#pragma once
// Device memory-model checker for the emulated CUDA kernels.
//
// The emulation in cuda_sim.h runs each block's phases sequentially on one
// ThreadPool worker, so -fsanitize=thread is structurally blind to the races
// that matter on real hardware: two threads of a block touching the same
// shared-memory word in the same barrier-delimited phase, or two blocks
// scattering into the same global word without atomics (§III-F requires
// atomicAdd there). This checker validates the *CUDA* memory model, not the
// pthread one:
//
//   (1) intra-block same-phase write/write and read/write conflicts between
//       threads — the races serialization hides,
//   (2) inter-block conflicting global accesses where at least one side is a
//       plain (non-atomic) access — e.g. a `+=` where the paper's assembly
//       requires atomicAdd,
//   (3) reads of never-written device memory — shared memory is treated as
//       uninitialized at allocation, as `__shared__` arrays are on hardware,
//       even though the emulation's Arena zero-fills,
//   (4) out-of-bounds indexing through any instrumented view,
// plus a register-isolation rule (a thread may only touch its own slot of a
// Block register file; warp shuffles are the sanctioned exchange) and a
// ScheduleShuffler that re-runs a launch with a seeded random block order and
// diffs the outputs to flag order-dependent kernels.
//
// Wiring: a kernel creates a KernelScope at its launch site, registers the
// global buffers it will touch (in()/out()), and reads/writes them through
// checked_span views bound to the executing block's ThreadCtx. Shared-memory
// and register-file allocations from Block are instrumented automatically.
// When the checker is disabled (the default) every hook is a null-pointer
// test: no shadow state is allocated and no access is recorded.
//
// Enabling: LANDAU_CHECK_DEVICE=1 (or "strict", "shuffle", comma-separable)
// in the environment, RobustnessOptions::check_device, or programmatically
// through check::options(). Reports flow through util/logging with
// (kernel, buffer, index, block, phase, thread) provenance; strict mode makes
// KernelScope::finish() throw landau::Error on the first report.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/counters.h"
#include "exec/thread_pool.h"

namespace landau::exec::check {

// ---------------------------------------------------------------------------
// Options and global state
// ---------------------------------------------------------------------------

struct CheckOptions {
  bool enabled = false; // master switch (see also robustness().check_device)
  bool strict = false;  // KernelScope::finish() throws on any report
  bool shuffle = false; // ScheduleShuffler: double-run launches, diff outputs
  std::uint64_t shuffle_seed = 0x9e3779b97f4a7c15ull;
  double shuffle_tol = 1e-9; // relative fp tolerance of the schedule diff
  int max_reports_per_kernel = 64;

  // Seeded-bug hooks for validating the checker itself (ctest -L analysis).
  // drop_sync skips the phase advance of the N-th sync() of every block,
  // modeling a forgotten __syncthreads(); uninit_input registers the named
  // input buffer as never-written, modeling a read of unpacked device data.
  int drop_sync = -1;
  std::string uninit_input;
};

/// Mutable global options; first access parses LANDAU_CHECK_DEVICE.
CheckOptions& options();

/// True when checking is on (options().enabled or robustness().check_device).
bool enabled();

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Report categories (stable strings, asserted on by tests).
inline constexpr const char* kIntraBlockRace = "intra-block-race";
inline constexpr const char* kInterBlockRace = "inter-block-race";
inline constexpr const char* kUninitRead = "uninit-read";
inline constexpr const char* kOutOfBounds = "out-of-bounds";
inline constexpr const char* kRegisterIsolation = "register-isolation";
inline constexpr const char* kOrderDependent = "order-dependent";

/// Thread id of block-uniform code (outside Block::threads / team ranges).
inline constexpr int kUniformThread = -1;

struct Report {
  std::string kernel;   // launch site name ("landau:jacobian-cuda", ...)
  std::string buffer;   // registered buffer name ("csr.values", "tile_r", ...)
  std::string category; // one of the k... strings above
  std::size_t index = 0;
  // The access that detected the conflict...
  int block = -1, phase = -1, thread = kUniformThread;
  // ...and the earlier access it conflicts with (when applicable).
  int prev_block = -1, prev_phase = -1, prev_thread = kUniformThread;
  std::string detail;

  std::string str() const;
};

// ---------------------------------------------------------------------------
// Shadow memory
// ---------------------------------------------------------------------------

enum class Space : std::uint8_t { Global, Shared, Register };
enum class Kind : std::uint8_t { Read, Write, Atomic };

class KernelSession;

/// Identity of the code performing an access: owned by the executing Block /
/// TeamMember / pseudo-task and consulted by checked_span at access time.
struct ThreadCtx {
  KernelSession* session = nullptr;
  int block = 0;
  int phase = 0;
  int thread = kUniformThread;
  int sync_count = 0; // consumed by the drop_sync seeded-bug hook
};

/// Per-word shadow state of one registered buffer.
struct ShadowWord {
  std::int32_t w_block = -2, w_phase = -1, w_thread = -3;
  std::int32_t r_block = -2, r_phase = -1, r_thread = -3;
  std::uint8_t w_kind = 0; // 0 none, 1 plain, 2 atomic
  std::uint8_t init = 0;
};

/// Shadow state and conflict detection for one registered buffer.
class ShadowBuffer {
public:
  ShadowBuffer(KernelSession* session, std::string name, Space space, const void* base,
               std::size_t words, std::size_t word_bytes, bool f64, bool writable,
               bool initialized, int owner_block);

  void record(std::size_t index, Kind kind, const ThreadCtx& who);
  void record_oob(std::size_t index, const ThreadCtx& who);

  const std::string& name() const { return name_; }
  Space space() const { return space_; }
  std::size_t words() const { return words_; }

private:
  friend class KernelSession;
  KernelSession* session_;
  std::string name_;
  Space space_;
  const void* base_;
  std::size_t words_, word_bytes_;
  bool f64_, writable_, initialized_;
  int owner_block_; // -1 for global buffers; the owning block for shared/regs
  std::vector<ShadowWord> shadow_;
  // Schedule-shuffler snapshots (writable global buffers only).
  std::vector<std::byte> preimage_, result_;
};

/// Inactive-by-default handle to a registered buffer; produced by
/// KernelScope::in()/out() and bound to a ThreadCtx to form a checked_span.
template <class T> struct BufferRef {
  T* data = nullptr;
  std::size_t size = 0;
  ShadowBuffer* sb = nullptr;
};

// ---------------------------------------------------------------------------
// checked_span: the instrumented device-buffer view
// ---------------------------------------------------------------------------

template <class T> class checked_span;

/// Proxy reference returned by checked_span::operator[]: reads record on
/// conversion, writes on assignment. Compound ops record read + write.
template <class T> class checked_ref {
public:
  checked_ref(const checked_span<T>* s, std::size_t i) : s_(s), i_(i) {}

  operator const T&() const {
    s_->note(i_, Kind::Read);
    return *s_->target(i_);
  }
  T& operator=(const T& v) const
    requires(!std::is_const_v<T>)
  {
    s_->note(i_, Kind::Write);
    return *s_->target(i_) = v;
  }
  // Assigning between two proxies must copy the value, not rebind the proxy.
  const checked_ref& operator=(const checked_ref& o) const
    requires(!std::is_const_v<T>)
  {
    *this = static_cast<const T&>(o);
    return *this;
  }
  template <class U>
  const checked_ref& operator=(const checked_ref<U>& o) const
    requires(!std::is_const_v<T>)
  {
    *this = static_cast<const U&>(o);
    return *this;
  }
  T& operator+=(const T& v) const
    requires(!std::is_const_v<T>)
  {
    s_->note(i_, Kind::Read);
    s_->note(i_, Kind::Write);
    return *s_->target(i_) += v;
  }
  T& operator-=(const T& v) const
    requires(!std::is_const_v<T>)
  {
    s_->note(i_, Kind::Read);
    s_->note(i_, Kind::Write);
    return *s_->target(i_) -= v;
  }

private:
  const checked_span<T>* s_;
  std::size_t i_;
};

/// Span-like device-buffer view. With a null shadow binding (checker off)
/// every access degenerates to a raw pointer dereference; with an active
/// binding each access is bounds-checked and recorded in shadow memory under
/// the identity of the currently executing (block, phase, thread).
template <class T> class checked_span {
public:
  checked_span() = default;
  /*implicit*/ checked_span(std::span<T> s) : p_(s.data()), n_(s.size()) {}
  checked_span(BufferRef<T> ref, ThreadCtx* ctx)
      : p_(ref.data), n_(ref.size), sb_(ref.sb), ctx_(ref.sb ? ctx : nullptr) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  bool active() const { return sb_ != nullptr; }

  checked_ref<T> operator[](std::size_t i) const { return {this, i}; }

  /// Handing out raw pointers for bulk access requires annotating the
  /// accessed index set; these record the accesses and return the base.
  T* read_ptr(std::size_t i, std::size_t count = 1) const {
    for (std::size_t k = 0; sb_ && k < count; ++k) note(i + k, Kind::Read);
    return target(i);
  }
  T* read_strided(std::size_t i, std::size_t count, std::size_t stride) const {
    for (std::size_t k = 0; sb_ && k < count; ++k) note(i + k * stride, Kind::Read);
    return target(i);
  }
  T* write_ptr(std::size_t i, std::size_t count = 1) const {
    for (std::size_t k = 0; sb_ && k < count; ++k) note(i + k, Kind::Write);
    return target(i);
  }
  /// Read-modify-write pointer (e.g. accumulators passed to a helper).
  T* rw_ptr(std::size_t i, std::size_t count = 1) const {
    for (std::size_t k = 0; sb_ && k < count; ++k) {
      note(i + k, Kind::Read);
      note(i + k, Kind::Write);
    }
    return target(i);
  }
  /// atomicAdd: element i += v through the atomic path, recorded as an
  /// atomic write (atomic updates from several blocks do not conflict).
  void atomic_add(std::size_t i, T v) const
    requires(!std::is_const_v<T>)
  {
    note(i, Kind::Atomic);
    std::atomic_ref<T>(*target(i)).fetch_add(v, std::memory_order_relaxed);
  }
  /// Element i += v without atomics, recorded as one plain write: a second
  /// block's update of the same word is then reported as the missing
  /// atomicAdd (§III-F). For words no two concurrent blocks update.
  void plain_add(std::size_t i, T v) const
    requires(!std::is_const_v<T>)
  {
    note(i, Kind::Write);
    *target(i) += v;
  }
  /// Record a read of the whole view, return the base pointer.
  T* read_all() const { return read_ptr(0, n_); }

  /// Unchecked escape hatch (checker internals: shuffle emulation).
  std::span<T> raw() const { return {p_, n_}; }

  // Iteration yields proxies, so range-for records reads.
  class iterator {
  public:
    iterator(const checked_span* s, std::size_t i) : s_(s), i_(i) {}
    checked_ref<T> operator*() const { return (*s_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

  private:
    const checked_span* s_;
    std::size_t i_;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, n_}; }

  void note(std::size_t i, Kind k) const {
    if (!sb_) return;
    if (i >= n_) {
      sb_->record_oob(i, *ctx_);
      return;
    }
    sb_->record(i, k, *ctx_);
  }
  /// Address of element i; out-of-bounds indices are redirected to a sink so
  /// the emulation survives to report instead of corrupting memory.
  T* target(std::size_t i) const {
    if (sb_ && i >= n_) {
      static thread_local std::remove_const_t<T> sink{};
      return &sink;
    }
    return p_ + i;
  }

private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
  ShadowBuffer* sb_ = nullptr;
  ThreadCtx* ctx_ = nullptr;
};

// ---------------------------------------------------------------------------
// Sessions and launch-site scopes
// ---------------------------------------------------------------------------

/// Shadow state of one instrumented kernel launch. Created by KernelScope
/// when the checker is enabled; thread-safe (blocks run on pool workers).
class KernelSession {
public:
  KernelSession(std::string kernel, bool concurrent_blocks);
  ~KernelSession();

  const std::string& kernel() const { return kernel_; }
  bool concurrent_blocks() const { return concurrent_; }

  ShadowBuffer* add_buffer(std::string name, Space space, const void* base, std::size_t words,
                           std::size_t word_bytes, bool f64, bool writable, bool initialized,
                           int owner_block);

  /// Record a report (deduplicated by buffer/category/index, capped).
  /// Caller holds the buffer's lock; prev_* describe the conflicting earlier
  /// access (pass -2 block for "none").
  void report(const ShadowBuffer* buf, const char* category, std::size_t index,
              const ThreadCtx& who, int prev_block, int prev_phase, int prev_thread,
              std::string detail);

  std::size_t n_reports() const;
  std::vector<Report> take_reports();

  // --- ScheduleShuffler support (writable global buffers only) -------------
  void save_preimages();
  void snapshot_results();
  void restore_preimages();
  void reset_shadow();
  /// Diff current buffer contents against the snapshot; reports
  /// "order-dependent" beyond tolerance, then restores the snapshot so the
  /// caller always observes the natural-order results.
  void diff_schedules();

private:
  friend class ShadowBuffer; // records lock mu_ and call report() under it
  mutable std::mutex mu_;
  std::string kernel_;
  bool concurrent_;
  std::vector<std::unique_ptr<ShadowBuffer>> buffers_;
  std::vector<Report> reports_;
  std::vector<std::uint64_t> dedup_; // hashes of (buffer, category, index)
  bool saturated_ = false;
};

/// RAII handle a kernel creates at its launch site. Inactive (and free) when
/// the checker is disabled. finish() flushes reports into the global
/// DeviceChecker and throws in strict mode; the destructor flushes without
/// throwing if finish() was not called.
class KernelScope {
public:
  explicit KernelScope(const char* kernel, bool concurrent_blocks = true);
  ~KernelScope();

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  bool active() const { return session_ != nullptr; }
  KernelSession* session() const { return session_.get(); }

  /// Register a read-only input buffer (initialized unless it matches the
  /// uninit_input seeded-bug hook).
  template <class T> BufferRef<const T> in(std::span<const T> s, std::string name) {
    if (!session_) return {s.data(), s.size(), nullptr};
    const bool init = options().uninit_input != name;
    return {s.data(), s.size(),
            session_->add_buffer(std::move(name), Space::Global, s.data(), s.size(), sizeof(T),
                                 std::is_same_v<std::remove_cv_t<T>, double>, false, init, -1)};
  }
  /// Register a writable global buffer (outputs, in/out accumulators).
  template <class T> BufferRef<T> out(std::span<T> s, std::string name, bool initialized = true) {
    if (!session_) return {s.data(), s.size(), nullptr};
    return {s.data(), s.size(),
            session_->add_buffer(std::move(name), Space::Global, s.data(), s.size(), sizeof(T),
                                 std::is_same_v<std::remove_cv_t<T>, double>, true, initialized,
                                 -1)};
  }

  /// Flush reports to the global checker; throws landau::Error in strict
  /// mode if this launch produced any report.
  void finish();

private:
  void flush(); // non-throwing part of finish()
  std::unique_ptr<KernelSession> session_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Global report sink
// ---------------------------------------------------------------------------

/// Process-wide accumulator of finished sessions' reports (tests inspect and
/// clear it; long runs keep at most a bounded number of reports).
class DeviceChecker {
public:
  static DeviceChecker& instance();

  void add(std::vector<Report> reports);
  std::vector<Report> reports() const;
  long count(const std::string& category) const;
  long total() const;
  void clear();

private:
  mutable std::mutex mu_;
  std::vector<Report> reports_;
  long total_ = 0;
};

// ---------------------------------------------------------------------------
// ScheduleShuffler
// ---------------------------------------------------------------------------

/// Deterministic seeded permutation source for block-order shuffling.
class ScheduleShuffler {
public:
  explicit ScheduleShuffler(std::uint64_t seed) : state_(seed ? seed : 1) {}
  /// Fisher–Yates permutation of [0, n) from a splitmix64 stream.
  std::vector<std::size_t> permutation(std::size_t n);

private:
  std::uint64_t next();
  std::uint64_t state_;
};

/// Run `run_one(i)` for i in [0, n) over the pool — and, when the shuffler is
/// enabled and the scope is active, re-run the whole grid in a seeded random
/// block order and diff the registered writable global buffers to flag
/// order-dependent kernels. Kernel counters are restored so instrumented
/// flop/byte counts are not double-counted by the second run.
template <class F>
void run_grid(ThreadPool& pool, std::size_t n, KernelScope* chk, KernelCounters* counters,
              F&& run_one) {
  if (!chk || !chk->active() || !options().shuffle) {
    pool.parallel_for(n, run_one);
    return;
  }
  KernelSession* s = chk->session();
  s->save_preimages();
  pool.parallel_for(n, run_one);
  s->snapshot_results();
  std::int64_t flops = 0, dram = 0, shared = 0;
  if (counters) {
    flops = counters->flops.load();
    dram = counters->dram_bytes.load();
    shared = counters->shared_bytes.load();
  }
  s->restore_preimages();
  s->reset_shadow();
  ScheduleShuffler shuffler(options().shuffle_seed);
  const auto perm = shuffler.permutation(n);
  pool.parallel_for(n, [&](std::size_t i) { run_one(perm[i]); });
  if (counters) {
    counters->flops.store(flops);
    counters->dram_bytes.store(dram);
    counters->shared_bytes.store(shared);
  }
  s->diff_schedules();
}

} // namespace landau::exec::check
