#ifndef MPFDB_UTIL_FAULT_INJECTOR_H_
#define MPFDB_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace mpfdb {

// Deterministic, seedable IO fault injection for robustness tests.
//
// The IO layers call FaultInjector::MaybeFail("PagedFile::ReadPage")
// at every IO site: the page appends and reads of spill runs (PagedFile)
// and every write, fsync, rename and read of persistence
// (core/file_io.h). When no injector is installed — the production
// configuration — the call is a null pointer check and nothing else. Tests
// install one with ScopedFaultInjection to fail either the Nth counted IO
// (`fail_nth`) or each IO independently with probability `probability`
// under a fixed seed, so a failing schedule can be replayed bit-for-bit from
// the seed alone.
//
// Injected failures are ordinary kInternal statuses: the point is to prove
// that every operator propagates them cleanly (no crash, no leak, no result
// silently truncated), not to model any particular device error.
//
// The socket layer (server/net) draws from the same injector through
// MaybeSocketFault, which models the failure modes a wire protocol must
// survive rather than a clean Status: short reads/writes, EINTR, connection
// resets, accept failures, and stalls. Socket faults use their own
// probability knob so a chaos soak can hammer the network paths without
// also failing every page read underneath it (or vice versa).
class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 0;
    // Per-IO failure probability in [0, 1).
    double probability = 0.0;
    // If > 0, exactly the Nth IO (1-based) fails and later IOs succeed.
    uint64_t fail_nth = 0;
    // Per-socket-operation fault probability in [0, 1). Draws are
    // deterministic given the seed and the sequence of socket sites reached.
    double socket_probability = 0.0;
  };

  // What a socket operation should pretend happened. The net layer's
  // read/write/accept wrappers consult this before issuing the real syscall
  // and translate the verdict into the corresponding kernel behaviour.
  enum class SocketFault {
    kNone = 0,   // proceed normally
    kShort,      // transfer at most 1 byte this call (short read/write)
    kEintr,      // behave as if the syscall returned EINTR
    kReset,      // behave as if the peer reset the connection (ECONNRESET)
    kStall,      // sleep briefly before proceeding (slow peer / flaky link)
    kAcceptFail  // accept() failure: drop the pending connection
  };

  // Installs a process-global injector (replacing any previous one).
  static void Install(const Config& config);
  static void Uninstall();
  static bool active();

  // Returns an injected kInternal error if this IO should fail, naming the
  // site and the IO's global sequence number.
  static Status MaybeFail(const char* site);

  // Returns the fault (if any) to inject into this socket operation.
  // `site` names the call site ("net::Read", "net::Accept", ...); the
  // verdict is kNone whenever no injector is installed or
  // socket_probability is 0. Accept sites draw kAcceptFail where data sites
  // would draw kReset.
  static SocketFault MaybeSocketFault(const char* site, bool is_accept = false);

  // Total IOs observed since Install (failed or not).
  static uint64_t op_count();
  // IO faults MaybeFail injected since Install.
  static uint64_t fault_count();

 private:
  FaultInjector() = default;

  Config config_;
  // IOs from concurrent queries interleave; the count is atomic and the RNG
  // state is mutex-guarded so every draw consumes exactly one state step.
  // (The op numbering itself then depends on the thread schedule — tests
  // that replay exact sequences run single-threaded.)
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> faults_{0};
  std::mutex rng_mu_;
  uint64_t rng_state_ = 0;  // guarded by rng_mu_
};

// Installs a FaultInjector for the current scope; uninstalls on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultInjector::Config& config) {
    FaultInjector::Install(config);
  }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
  ~ScopedFaultInjection() { FaultInjector::Uninstall(); }
};

}  // namespace mpfdb

#endif  // MPFDB_UTIL_FAULT_INJECTOR_H_
