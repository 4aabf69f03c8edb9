// The three workloads of the end-to-end benchmark and the database each one
// stands up. See e2ebench/README.md for why each workload exists.
#ifndef MPFDB_E2EBENCH_WORKLOADS_H_
#define MPFDB_E2EBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "core/database.h"
#include "util/status.h"

namespace mpfdb::e2ebench {

// Every workload serves with one NetServer epoll loop and a serial executor
// (see README.md for why the pool stays off the served path).
constexpr int kIoThreads = 1;
constexpr size_t kPoolThreads = 1;

struct WorkloadConfig {
  std::string name;
  // Closed-loop clients; MpfServer admits as many queries at once.
  int clients = 1;
  // Optimizer spec the clients send; empty = the server default.
  std::string wire_optimizer;
  StreamShape shape;

  // The in-process equivalent of wire_optimizer.
  std::string optimizer() const {
    return wire_optimizer.empty() ? "cs+nonlinear" : wire_optimizer;
  }
  // Threads that can be busy at once. A closed-loop client waits while the
  // server works on its request, so a client and the thread serving it are
  // never busy together: each client accounts for one serial query, plus
  // the shared epoll loop.
  int ThreadBudget() const { return kIoThreads + clients; }
};

// Unknown workload names fail with kInvalidArgument.
StatusOr<WorkloadConfig> ConfigFor(const std::string& workload);

// One set-up database for a workload.
struct Env {
  std::unique_ptr<Database> db;
  std::string view;
  exec::ExecOptions exec_options;
  // cache_rw: the relation clients update and its rows' variable values,
  // in row order (a request's update_row indexes this).
  std::string update_table;
  std::vector<std::vector<VarValue>> update_rows;
  double generate_s = 0;     // data generation + view definition
  double build_cache_s = 0;  // VE-cache build (cache_rw only)
};

StatusOr<std::unique_ptr<Env>> SetUp(const WorkloadConfig& config);

// The measure a write sends: distinct for every (pass, client, write), and
// exact in binary, so no write is ever a no-op and replays stay bitwise.
double UpdateValue(int pass, int client, uint32_t serial);

}  // namespace mpfdb::e2ebench

#endif  // MPFDB_E2EBENCH_WORKLOADS_H_
