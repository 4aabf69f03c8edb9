#include "util/fault_injector.h"

#include <shared_mutex>

namespace mpfdb {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

// Serializes Install/Uninstall against in-flight MaybeFail/op_count calls
// from concurrently running queries: readers that saw a non-null pointer
// dereference it under a shared lock, and Uninstall deletes only under the
// exclusive lock, so the injector can never be freed mid-use. The inactive
// fast path (the production configuration) stays a lone atomic load.
std::shared_mutex g_injector_mu;

// The splitmix64 finalizer: a bijection that scatters nearby inputs.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// splitmix64: tiny, deterministic, and good enough for Bernoulli draws.
uint64_t NextRandom(uint64_t* state) {
  return Mix(*state += 0x9e3779b97f4a7c15ULL);
}

}  // namespace

void FaultInjector::Install(const Config& config) {
  auto* fi = new FaultInjector();
  fi->config_ = config;
  // The seed goes through the finalizer: seeding the state with a linear
  // function of it would make draw k under seed s a function of s + k
  // alone, so nearby seeds would replay shifted copies of one schedule.
  fi->rng_state_ = Mix(config.seed);
  std::unique_lock<std::shared_mutex> lock(g_injector_mu);
  delete g_injector.exchange(fi, std::memory_order_acq_rel);
}

void FaultInjector::Uninstall() {
  std::unique_lock<std::shared_mutex> lock(g_injector_mu);
  delete g_injector.exchange(nullptr, std::memory_order_acq_rel);
}

bool FaultInjector::active() {
  return g_injector.load(std::memory_order_acquire) != nullptr;
}

Status FaultInjector::MaybeFail(const char* site) {
  if (g_injector.load(std::memory_order_acquire) == nullptr) {
    return Status::Ok();
  }
  // Re-read under the shared lock: the injector seen above may have been
  // uninstalled in the window before the lock was acquired.
  std::shared_lock<std::shared_mutex> lock(g_injector_mu);
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  if (fi == nullptr) return Status::Ok();
  uint64_t op = fi->ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fail = false;
  if (fi->config_.fail_nth > 0) {
    fail = op == fi->config_.fail_nth;
  } else if (fi->config_.probability > 0.0) {
    // Map a 53-bit draw to [0, 1); deterministic given the seed and the
    // sequence of IO sites reached.
    std::lock_guard<std::mutex> lock(fi->rng_mu_);
    double u = static_cast<double>(NextRandom(&fi->rng_state_) >> 11) *
               (1.0 / 9007199254740992.0);
    fail = u < fi->config_.probability;
  }
  if (!fail) return Status::Ok();
  fi->faults_.fetch_add(1, std::memory_order_relaxed);
  return Status::Internal("injected fault #" + std::to_string(op) + " at " +
                          site);
}

FaultInjector::SocketFault FaultInjector::MaybeSocketFault(const char* site,
                                                           bool is_accept) {
  (void)site;
  if (g_injector.load(std::memory_order_acquire) == nullptr) {
    return SocketFault::kNone;
  }
  std::shared_lock<std::shared_mutex> lock(g_injector_mu);
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  if (fi == nullptr || fi->config_.socket_probability <= 0.0) {
    return SocketFault::kNone;
  }
  fi->ops_.fetch_add(1, std::memory_order_relaxed);
  uint64_t draw;
  {
    std::lock_guard<std::mutex> rng_lock(fi->rng_mu_);
    draw = NextRandom(&fi->rng_state_);
  }
  double u = static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  if (u >= fi->config_.socket_probability) return SocketFault::kNone;
  // Faulting: pick the kind from the low bits of the same draw so the whole
  // schedule is a pure function of (seed, site sequence). Accept sites have
  // only one interesting failure; data sites spread across the four modes,
  // weighted toward the recoverable ones (short transfers and EINTR) so a
  // soak exercises the retry paths more often than it kills connections.
  if (is_accept) return SocketFault::kAcceptFail;
  switch (draw & 7) {
    case 0:
    case 1:
    case 2:
      return SocketFault::kShort;
    case 3:
    case 4:
      return SocketFault::kEintr;
    case 5:
      return SocketFault::kStall;
    default:
      return SocketFault::kReset;
  }
}

uint64_t FaultInjector::op_count() {
  std::shared_lock<std::shared_mutex> lock(g_injector_mu);
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  return fi == nullptr ? 0 : fi->ops_.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::fault_count() {
  std::shared_lock<std::shared_mutex> lock(g_injector_mu);
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  return fi == nullptr ? 0 : fi->faults_.load(std::memory_order_relaxed);
}

}  // namespace mpfdb
