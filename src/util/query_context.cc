#include "util/query_context.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

namespace mpfdb {

namespace {

uint64_t NextContextId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

QueryContext::QueryContext()
    : cancel_(std::make_shared<CancelToken>()), context_id_(NextContextId()) {
  std::error_code ec;
  auto tmp = std::filesystem::temp_directory_path(ec);
  spill_dir_ = ec ? "." : tmp.string();
}

Status QueryContext::Charge(size_t bytes, const char* who) {
  // Compare-exchange against the limit so concurrent callers can never
  // jointly overshoot the budget: each reservation either fits at the
  // moment it lands or fails without charging anything.
  size_t in_use = bytes_in_use_.load(std::memory_order_relaxed);
  for (;;) {
    if (memory_limit_ > 0 && in_use + bytes > memory_limit_) {
      return Status::ResourceExhausted(
          std::string(who) + ": memory budget exceeded (requested " +
          std::to_string(bytes) + " bytes, in use " + std::to_string(in_use) +
          ", limit " + std::to_string(memory_limit_) + ")");
    }
    if (bytes_in_use_.compare_exchange_weak(in_use, in_use + bytes,
                                            std::memory_order_relaxed)) {
      break;
    }
  }
  size_t now = in_use + bytes;
  size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes_.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
  }
  return Status::Ok();
}

void QueryContext::ChargeUnchecked(size_t bytes) {
  size_t now =
      bytes_in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes_.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
  }
}

void QueryContext::Release(size_t bytes) {
  // Clamp at zero like the serial engine did: a release can never drive the
  // counter negative even if accounting drifted on an error path.
  size_t in_use = bytes_in_use_.load(std::memory_order_relaxed);
  while (!bytes_in_use_.compare_exchange_weak(
      in_use, bytes <= in_use ? in_use - bytes : 0,
      std::memory_order_relaxed)) {
  }
}

std::string QueryContext::NextSpillPath() {
  std::filesystem::path dir(spill_dir_);
  // The PID keeps concurrent processes (parallel ctest, several CLIs over
  // one spill dir) from colliding: context_id_ is only process-unique.
  std::string name =
      "mpfdb-spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(context_id_) + "-" +
      std::to_string(next_spill_id_.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";
  return (dir / name).string();
}

void QueryContext::RecordSpill(uint64_t rows, uint64_t bytes) {
  spill_files_.fetch_add(1, std::memory_order_relaxed);
  spill_rows_.fetch_add(rows, std::memory_order_relaxed);
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status QueryContext::SetSticky(Status s) {
  std::lock_guard<std::mutex> lock(sticky_mu_);
  // First failure wins; a racing caller returns the already-latched status
  // so the whole tree unwinds with one coherent error.
  if (sticky_.ok()) {
    sticky_ = std::move(s);
    doomed_.store(true, std::memory_order_release);
  }
  return sticky_;
}

Status QueryContext::CheckDeadline() {
  if (std::chrono::steady_clock::now() >= deadline_) {
    return SetSticky(Status::DeadlineExceeded("query deadline exceeded"));
  }
  return Status::Ok();
}

}  // namespace mpfdb
