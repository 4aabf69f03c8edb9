#ifndef MPFDB_UTIL_QUERY_CONTEXT_H_
#define MPFDB_UTIL_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace mpfdb {

namespace exec {
class ThreadPool;
}  // namespace exec

// Cooperative cancellation flag for one query. The token is shared so an
// external owner (a serving thread, a test) can request cancellation while
// the executor polls it from operator loops. RequestCancel is safe to call
// from another thread.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

// Per-query resource governor threaded through the executor. It owns:
//
//  * a memory budget, charged by every stateful operator (hash join build
//    sides, hash marginalize tables, sort buffers) via Charge/Release;
//  * a wall-clock deadline plus a cooperative cancellation token, both
//    observed through Poll() from every operator loop;
//  * the spill configuration operators use to degrade gracefully when the
//    budget is hit (Grace-style partitioned spills through SpillFile).
//
// The protocol: operators call Charge(bytes) before growing state. An OK
// means the reservation is recorded; kResourceExhausted means the budget
// would be exceeded and NOTHING was charged — the operator either switches
// to its spill strategy (if spill_enabled()) or propagates the error.
// Poll(rows) is called with the number of rows processed since the last
// call; the cancel flag is checked on every call and the (comparatively
// expensive) clock only every kPollIntervalRows accumulated rows, so a
// deadline or cancel is honored within about one batch of work. A failed
// poll is sticky: every later poll returns the same error immediately, so
// an operator tree unwinds fast once the query is doomed.
//
// Thread safety: the runtime protocol (Poll/Charge/ChargeUnchecked/Release/
// NextSpillPath/RecordSpill/stats) is safe to call from any number of
// threads concurrently — charges resolve through compare-exchange against
// the budget, counters are atomic, and the sticky status is guarded by a
// mutex behind an atomic doomed flag. Configuration setters remain
// single-threaded: bind them before the query starts.
//
// A default-constructed context has no limit, no deadline and no cancel
// request — binding one to a query is then pure accounting.
class QueryContext {
 public:
  // Clock checks in Poll happen once per this many accumulated row-units.
  static constexpr size_t kPollIntervalRows = 1024;

  QueryContext();

  // --- configuration -----------------------------------------------------
  // 0 means unlimited (the default).
  void set_memory_limit(size_t bytes) { memory_limit_ = bytes; }
  size_t memory_limit() const { return memory_limit_; }

  // Lowers the memory limit to `bytes` unless an existing limit is already
  // tighter; 0 is ignored. The admission controller uses this to impose its
  // per-slot share of the global serving budget without loosening a stricter
  // limit the caller configured.
  void TightenMemoryLimit(size_t bytes) {
    if (bytes == 0) return;
    if (memory_limit_ == 0 || bytes < memory_limit_) memory_limit_ = bytes;
  }

  // Whether operators may degrade to disk spills instead of failing with
  // kResourceExhausted when the budget is hit. Default true.
  void set_spill_enabled(bool enabled) { spill_enabled_ = enabled; }
  bool spill_enabled() const { return spill_enabled_; }

  // Directory for spill files; defaults to the system temp directory.
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  const std::string& spill_dir() const { return spill_dir_; }

  // Inert: stores nothing, because every query runs on the calling thread.
  // Kept only for the end-to-end benchmark (e2ebench/), which still calls
  // it; ROADMAP.md item 2 deletes it with exec::ThreadPool.
  void set_thread_pool(exec::ThreadPool* /*pool*/) {}

  // Absolute wall-clock deadline; queries fail with kDeadlineExceeded once
  // it passes.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void set_deadline_after(std::chrono::nanoseconds budget) {
    set_deadline(std::chrono::steady_clock::now() + budget);
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  const std::shared_ptr<CancelToken>& cancel_token() const { return cancel_; }
  void RequestCancel() { cancel_->RequestCancel(); }

  // --- runtime protocol ---------------------------------------------------
  // Checks cancellation (every call) and the deadline (every
  // kPollIntervalRows accumulated `rows`). Sticky on failure.
  Status Poll(size_t rows = 1) {
    if (doomed_.load(std::memory_order_acquire)) return sticky();
    if (cancel_->cancelled()) {
      return SetSticky(Status::Cancelled("query cancelled"));
    }
    if (has_deadline_) {
      size_t seen =
          rows_since_clock_check_.fetch_add(rows, std::memory_order_relaxed) +
          rows;
      if (seen >= kPollIntervalRows) {
        rows_since_clock_check_.store(0, std::memory_order_relaxed);
        return CheckDeadline();
      }
    }
    return Status::Ok();
  }

  // Reserves `bytes` against the budget. On kResourceExhausted nothing is
  // charged; `who` names the operator for the error message.
  Status Charge(size_t bytes, const char* who);

  // Records usage without enforcing the limit. Used for state the engine
  // cannot shrink further (e.g. the per-partition table while draining a
  // spill, or the final materialized result), so peak accounting stays
  // honest even in degraded mode.
  void ChargeUnchecked(size_t bytes);

  void Release(size_t bytes);

  // Unique path for a new spill file under spill_dir().
  std::string NextSpillPath();
  void RecordSpill(uint64_t rows, uint64_t bytes);

  struct Stats {
    size_t bytes_in_use = 0;
    size_t peak_bytes = 0;
    uint64_t spill_files = 0;
    uint64_t spill_rows = 0;
    uint64_t spill_bytes = 0;
  };
  // Snapshot by value: individual fields are consistent; the struct as a
  // whole is a best-effort view while the query is running.
  Stats stats() const {
    Stats s;
    s.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
    s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
    s.spill_files = spill_files_.load(std::memory_order_relaxed);
    s.spill_rows = spill_rows_.load(std::memory_order_relaxed);
    s.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  Status CheckDeadline();
  Status SetSticky(Status s);
  Status sticky() const {
    std::lock_guard<std::mutex> lock(sticky_mu_);
    return sticky_;
  }

  size_t memory_limit_ = 0;
  bool spill_enabled_ = true;
  std::string spill_dir_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::shared_ptr<CancelToken> cancel_;

  // First failure, latched for every later Poll. The atomic flag keeps the
  // common not-doomed fast path lock-free.
  std::atomic<bool> doomed_{false};
  mutable std::mutex sticky_mu_;
  Status sticky_;  // guarded by sticky_mu_

  std::atomic<size_t> rows_since_clock_check_{0};
  std::atomic<uint64_t> next_spill_id_{0};
  uint64_t context_id_ = 0;

  std::atomic<size_t> bytes_in_use_{0};
  std::atomic<size_t> peak_bytes_{0};
  std::atomic<uint64_t> spill_files_{0};
  std::atomic<uint64_t> spill_rows_{0};
  std::atomic<uint64_t> spill_bytes_{0};
};

// Per-variable trie-iterator counters reported by the LeapFrog TrieJoin:
// total Seek and Next calls across every child iterator's level for this
// variable. EXPLAIN ANALYZE renders one line per variable in join order.
struct TrieVarStats {
  std::string var;
  uint64_t seeks = 0;
  uint64_t nexts = 0;
};

// Runtime counters for one physical operator — the EXPLAIN ANALYZE stats
// spine. The executor's instrumentation decorator fills output_rows /
// batches / wall_nanos (wall time is inclusive of the subtree: it measures
// Open/Next/NextBatch latency at this operator's boundary); the operator's
// own MemoryGuards maintain peak_bytes; the spill degrade paths record
// spill_partitions; the trie join fills trie_vars on Close. Not thread-safe:
// all writers run on the query's thread.
struct OperatorStats {
  uint64_t output_rows = 0;
  uint64_t batches = 0;
  size_t peak_bytes = 0;
  uint64_t spill_partitions = 0;
  uint64_t wall_nanos = 0;
  std::vector<TrieVarStats> trie_vars;
};

// RAII bookkeeping for one operator's charges against a QueryContext.
// Everything charged through the guard is released when the guard is
// destroyed or ReleaseAll() is called (operator Close/re-Open), so error
// paths cannot strand accounting. A guard bound to a null context is a
// no-op, which keeps ungoverned execution zero-cost. Each guard instance is
// single-threaded.
class MemoryGuard {
 public:
  MemoryGuard() = default;
  explicit MemoryGuard(QueryContext* ctx) : ctx_(ctx) {}
  MemoryGuard(const MemoryGuard&) = delete;
  MemoryGuard& operator=(const MemoryGuard&) = delete;
  ~MemoryGuard() { ReleaseAll(); }

  void Bind(QueryContext* ctx) {
    ReleaseAll();
    ctx_ = ctx;
  }

  Status Charge(size_t bytes, const char* who) {
    if (ctx_ == nullptr || bytes == 0) return Status::Ok();
    MPFDB_RETURN_IF_ERROR(ctx_->Charge(bytes, who));
    charged_ += bytes;
    UpdatePeak();
    return Status::Ok();
  }

  void ChargeUnchecked(size_t bytes) {
    if (ctx_ == nullptr) return;
    ctx_->ChargeUnchecked(bytes);
    charged_ += bytes;
    UpdatePeak();
  }

  void ReleaseAll() {
    if (ctx_ != nullptr && charged_ > 0) ctx_->Release(charged_);
    charged_ = 0;
  }

  // Routes this guard's high-water mark into an operator's stats record
  // (EXPLAIN ANALYZE). Null detaches; the guard never owns the record.
  void set_stats(OperatorStats* stats) {
    stats_ = stats;
    UpdatePeak();
  }

  size_t charged() const { return charged_; }
  QueryContext* context() const { return ctx_; }

 private:
  void UpdatePeak() {
    if (stats_ != nullptr && charged_ > stats_->peak_bytes) {
      stats_->peak_bytes = charged_;
    }
  }

  QueryContext* ctx_ = nullptr;
  size_t charged_ = 0;
  OperatorStats* stats_ = nullptr;
};

}  // namespace mpfdb

#endif  // MPFDB_UTIL_QUERY_CONTEXT_H_
