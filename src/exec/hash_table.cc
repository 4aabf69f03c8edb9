#include "exec/hash_table.h"

#include <atomic>
#include <cstdlib>

namespace mpfdb::exec {

namespace {

std::atomic<bool> g_force_scalar{[] {
  const char* env = std::getenv("MPFDB_SCALAR_HASH");
  return env != nullptr && env[0] == '1';
}()};

}  // namespace

bool ScalarHashProbesForced() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

void SetForceScalarHashProbes(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace mpfdb::exec
