// Deterministic fault-injection harness: seedable IO failures driven through
// random governed plans. The property under test is robustness, not any
// particular answer: every run either completes with results bit-identical
// to an unconstrained fault-free run, or fails with a clean, descriptive
// Status from the small set of expected codes — never a crash, never a leak
// (the ASan preset checks the latter), never a silently truncated result.
//
// The seed sweep is widened by the MPFDB_FAULT_SEED environment variable, so
// CI can run the same binary under many schedules.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <thread>

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "fr/algebra.h"
#include "storage/binary_table.h"
#include "util/fault_injector.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb::exec {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// Base seed mixed from the environment so a CI matrix sweeping
// MPFDB_FAULT_SEED explores disjoint schedules with the same binary.
uint64_t EnvSeed() {
  const char* env = std::getenv("MPFDB_FAULT_SEED");
  if (env == nullptr) return 0;
  return std::strtoull(env, nullptr, 10);
}

// Unit-measure random table with unique variable tuples: SumProduct results
// are exact small integers, so completed runs can be compared bit-for-bit.
TablePtr RandomUnitTable(const std::string& name,
                         std::vector<std::string> vars,
                         std::vector<int64_t> domains, size_t rows, Rng& rng) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  std::set<std::vector<VarValue>> seen;
  while (t->NumRows() < rows) {
    std::vector<VarValue> row;
    for (int64_t d : domains) {
      row.push_back(static_cast<VarValue>(rng.UniformInt(0, d - 1)));
    }
    if (!seen.insert(row).second) continue;
    t->AppendRow(row, 1.0);
  }
  return t;
}

void SortCanonically(Table& table) {
  std::vector<size_t> all(table.schema().arity());
  std::iota(all.begin(), all.end(), 0);
  table.SortByVariables(all);
}

// --- injector determinism ---------------------------------------------------

TEST(FaultInjectorTest, FailsExactlyTheNthIo) {
  FaultInjector::Config config;
  config.fail_nth = 3;
  ScopedFaultInjection scoped(config);
  EXPECT_TRUE(FaultInjector::MaybeFail("site").ok());
  EXPECT_TRUE(FaultInjector::MaybeFail("site").ok());
  Status third = FaultInjector::MaybeFail("site");
  EXPECT_EQ(third.code(), StatusCode::kInternal);
  EXPECT_NE(third.message().find("injected fault"), std::string::npos);
  EXPECT_NE(third.message().find("site"), std::string::npos);
  EXPECT_TRUE(FaultInjector::MaybeFail("site").ok());
  EXPECT_EQ(FaultInjector::op_count(), 4u);
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  auto schedule = [](uint64_t seed) {
    FaultInjector::Config config;
    config.seed = seed;
    config.probability = 0.2;
    ScopedFaultInjection scoped(config);
    std::vector<bool> failures;
    for (int i = 0; i < 200; ++i) {
      failures.push_back(!FaultInjector::MaybeFail("s").ok());
    }
    return failures;
  };
  EXPECT_EQ(schedule(99), schedule(99));
  EXPECT_NE(schedule(99), schedule(100));
  // Probability 0.2 over 200 draws: some but not all IOs fail.
  auto s = schedule(99);
  size_t fails = static_cast<size_t>(std::count(s.begin(), s.end(), true));
  EXPECT_GT(fails, 0u);
  EXPECT_LT(fails, s.size());
}

TEST(FaultInjectorTest, InactiveInjectorNeverFails) {
  ASSERT_FALSE(FaultInjector::active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(FaultInjector::MaybeFail("site").ok());
  }
}

// A fault injected into a binary database load surfaces as a clean error,
// the exact same seed reproduces the exact same failures, and a load the
// schedule spares is bit-identical to the database saved.
TEST(FaultInjectorTest, BinaryLoadFaultIsDeterministicallyReproducible) {
  Rng rng(1);
  Database saved;
  for (const char* var : {"x", "y", "z"}) {
    ASSERT_TRUE(saved.catalog().RegisterVariable(var, 120).ok());
  }
  ASSERT_TRUE(saved.CreateTable(RandomUnitTable("a", {"x", "y"}, {120, 120},
                                                6000, rng))
                  .ok());
  ASSERT_TRUE(saved.CreateTable(RandomUnitTable("b", {"y", "z"}, {120, 120},
                                                3000, rng))
                  .ok());
  std::string dir = TempPath("mpfdb_fault_load");
  fs::remove_all(dir);
  ASSERT_TRUE(SaveDatabase(saved, dir, /*binary=*/true).ok());

  // Forty loads under one seeded schedule: the status of each. Each load
  // reads the manifest and both table files.
  auto run_schedule = [&](uint64_t seed) {
    FaultInjector::Config config;
    config.seed = seed;
    config.probability = 0.25;
    ScopedFaultInjection scoped(config);
    std::vector<std::string> outcomes;
    for (int i = 0; i < 40; ++i) {
      Database loaded;
      Status status = LoadDatabase(dir, loaded);
      if (status.ok()) {
        for (const char* name : {"a", "b"}) {
          EXPECT_EQ(EncodeTableBinary(**loaded.catalog().GetTable(name)),
                    EncodeTableBinary(**saved.catalog().GetTable(name)));
        }
        outcomes.push_back("ok");
      } else {
        EXPECT_NE(status.message().find("injected fault"), std::string::npos)
            << status;
        outcomes.push_back(status.message());
      }
    }
    return outcomes;
  };
  std::vector<std::string> first = run_schedule(EnvSeed() + 5);
  EXPECT_EQ(first, run_schedule(EnvSeed() + 5));
  EXPECT_GT(std::count(first.begin(), first.end(), "ok"), 0);
  EXPECT_LT(std::count(first.begin(), first.end(), "ok"), 40);
  fs::remove_all(dir);
}

// --- random-plan robustness property ----------------------------------------

struct GovernorConfig {
  const char* label;
  size_t memory_limit = 0;
  bool spill_enabled = true;
  bool expired_deadline = false;
};

struct RunOutcome {
  Status status = Status::Ok();
  TablePtr table;
};

// Builds join-then-marginalize trees over three tables sharing a variable
// chain; shape varies with the seed.
struct RandomPlan {
  TablePtr a, b, c;
  std::vector<std::string> group_vars;

  static RandomPlan Make(Rng& rng) {
    RandomPlan p;
    // Keep rows comfortably below dom^2 so unique-tuple sampling terminates.
    size_t rows = 100 + static_cast<size_t>(rng.UniformInt(0, 100));
    int64_t dom = 20 + rng.UniformInt(0, 8);
    p.a = RandomUnitTable("a", {"x", "y"}, {dom, dom}, rows, rng);
    p.b = RandomUnitTable("b", {"y", "z"}, {dom, dom}, rows, rng);
    p.c = RandomUnitTable("c", {"z", "w"}, {dom, dom}, rows, rng);
    p.group_vars = rng.UniformInt(0, 1) == 0
                       ? std::vector<std::string>{"x"}
                       : std::vector<std::string>{"x", "w"};
    return p;
  }

  OperatorPtr Build() const {
    auto ab = std::make_unique<HashProductJoin>(std::make_unique<SeqScan>(a),
                                                std::make_unique<SeqScan>(b),
                                                Semiring::SumProduct());
    auto abc = std::make_unique<HashProductJoin>(
        std::move(ab), std::make_unique<SeqScan>(c), Semiring::SumProduct());
    return std::make_unique<HashMarginalize>(std::move(abc), group_vars,
                                             Semiring::SumProduct());
  }
};

RunOutcome RunGoverned(const RandomPlan& plan, const GovernorConfig& config) {
  QueryContext ctx;
  if (config.memory_limit > 0) ctx.set_memory_limit(config.memory_limit);
  ctx.set_spill_enabled(config.spill_enabled);
  if (config.expired_deadline) {
    ctx.set_deadline_after(std::chrono::nanoseconds(0));
  }
  auto root = plan.Build();
  root->BindContext(&ctx);
  RunOutcome outcome;
  auto result = ::mpfdb::exec::Run(*root, "out", &ctx);
  outcome.status = result.status();
  if (result.ok()) outcome.table = *result;
  // Whatever happened, every charge must have been unwound.
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << config.label;
  return outcome;
}

// Every (seed × governor × fault) combination either completes with the fr
// oracle's answer (exact: unit measures keep every sum an integer), or fails
// with a clean expected Status. Eight base seeds; MPFDB_FAULT_SEED shifts the
// whole sweep.
TEST(FaultInjectionPropertyTest, RandomPlansDegradeCleanlyUnderFaults) {
  const uint64_t env_seed = EnvSeed();
  const std::set<StatusCode> allowed = {
      StatusCode::kCancelled, StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted, StatusCode::kInternal};
  const GovernorConfig governors[] = {
      {"unconstrained"},
      {"budget+spill", 8 * 1024, true, false},
      {"budget-no-spill", 8 * 1024, false, false},
      {"expired-deadline", 0, true, true},
  };

  size_t completed = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919 + env_seed * 104729);
    RandomPlan plan = RandomPlan::Make(rng);

    auto golden = fr::EvaluateNaiveMpf({plan.a, plan.b, plan.c},
                                       plan.group_vars, {},
                                       Semiring::SumProduct(), "golden");
    ASSERT_TRUE(golden.ok()) << golden.status();

    for (const GovernorConfig& governor : governors) {
      for (double probability : {0.0, 0.02}) {
        FaultInjector::Config fault;
        fault.seed = seed ^ (env_seed * 0x9e3779b97f4a7c15ULL);
        fault.probability = probability;
        ScopedFaultInjection scoped(fault);

        RunOutcome outcome = RunGoverned(plan, governor);
        std::string where = std::string(governor.label) + "/p=" +
                            std::to_string(probability) + "/seed=" +
                            std::to_string(seed);
        if (outcome.status.ok()) {
          ++completed;
          SortCanonically(*outcome.table);
          EXPECT_TRUE(fr::TablesEqual(**golden, *outcome.table, 0.0))
              << where;
        } else {
          ++failed;
          EXPECT_TRUE(allowed.count(outcome.status.code()))
              << where << ": " << outcome.status;
          EXPECT_FALSE(outcome.status.message().empty()) << where;
        }
      }
    }
  }
  // The sweep must actually exercise both outcomes: plenty of clean
  // completions (unconstrained, fault-free) and plenty of clean failures
  // (expired deadlines at minimum).
  EXPECT_GT(completed, 0u);
  EXPECT_GT(failed, 0u);
}

// Focused variant: faults aimed specifically at spill IO. With a tiny budget
// the plan must spill; a mid-spill fault has to unwind cleanly and remove
// its temporary files.
TEST(FaultInjectionPropertyTest, SpillIoFaultsUnwindCleanly) {
  const uint64_t env_seed = EnvSeed();
  size_t injected_failures = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 31 + env_seed);
    RandomPlan plan = RandomPlan::Make(rng);
    GovernorConfig governor{"budget+spill", 4 * 1024, true, false};

    // First pass, no faults: count the spill IOs this plan performs.
    uint64_t spill_ios = 0;
    {
      FaultInjector::Config observe;  // never fails, only counts
      ScopedFaultInjection scoped(observe);
      RunOutcome outcome = RunGoverned(plan, governor);
      ASSERT_TRUE(outcome.status.ok()) << outcome.status;
      spill_ios = FaultInjector::op_count();
    }
    if (spill_ios == 0) continue;  // plan fit in budget; nothing to aim at

    // Second pass: fail an IO in the middle of the observed schedule.
    FaultInjector::Config fault;
    fault.fail_nth = spill_ios / 2 + 1;
    ScopedFaultInjection scoped(fault);
    RunOutcome outcome = RunGoverned(plan, governor);
    ASSERT_FALSE(outcome.status.ok());
    EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
    EXPECT_NE(outcome.status.message().find("injected fault"),
              std::string::npos)
        << outcome.status.message();
    ++injected_failures;
  }
  // The tiny budget guarantees spills, so the aimed fault must have fired
  // for every seed.
  EXPECT_EQ(injected_failures, 8u);
}

// --- governed-query stress --------------------------------------------------

// A private spill directory per run, so "no leaked spill files" is checked
// against an initially empty directory instead of the shared system temp.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    dir_ = TempPath("mpfdb_fi_" + tag + "_" +
                    std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  const std::string& path() const { return dir_; }

  size_t NumFiles() const {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

 private:
  std::string dir_;
};

// Cancellation requested from a separate thread in the middle of a query:
// the query observes the flag and either completes with the correct answer
// (the cancel raced past the finish) or unwinds with a clean kCancelled —
// and either way all memory charges and spill files are gone.
TEST(ParallelStressTest, MidQueryCancellationFromAnotherThread) {
  Rng rng(42);
  RandomPlan plan = RandomPlan::Make(rng);
  auto golden_root = plan.Build();
  auto golden = ::mpfdb::exec::Run(*golden_root, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();
  SortCanonically(**golden);

  size_t cancelled = 0;
  const auto delays = {std::chrono::microseconds(0),
                       std::chrono::microseconds(50),
                       std::chrono::microseconds(200),
                       std::chrono::microseconds(1000),
                       std::chrono::microseconds(5000)};
  for (auto delay : delays) {
    for (int rep = 0; rep < 4; ++rep) {
      ScopedTempDir spill_dir("cancel");
      QueryContext ctx;
      ctx.set_memory_limit(8 * 1024);
      ctx.set_spill_enabled(true);
      ctx.set_spill_dir(spill_dir.path());
      auto root = plan.Build();
      root->BindContext(&ctx);

      std::thread canceller([&ctx, delay] {
        std::this_thread::sleep_for(delay);
        ctx.RequestCancel();
      });
      auto result = ::mpfdb::exec::Run(*root, "out", &ctx);
      canceller.join();

      if (result.ok()) {
        SortCanonically(**result);
        EXPECT_TRUE(fr::TablesEqual(**golden, **result, 0.0));
      } else {
        ++cancelled;
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status();
      }
      EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
      EXPECT_EQ(spill_dir.NumFiles(), 0u);
    }
  }
  // A cancel requested before any work must always take effect; the delayed
  // ones may race either way.
  EXPECT_GT(cancelled, 0u);
}

// Deadlines on spilling queries: an expired deadline always surfaces as
// kDeadlineExceeded; a mid-flight deadline either beats the query or stops
// it cleanly. Charges and spill files unwind in every outcome.
TEST(ParallelStressTest, DeadlineObservedByParallelWorkers) {
  Rng rng(43);
  RandomPlan plan = RandomPlan::Make(rng);

  // Already-expired deadline: must fail, never crash or hang.
  {
    ScopedTempDir spill_dir("deadline");
    QueryContext ctx;
    ctx.set_spill_dir(spill_dir.path());
    ctx.set_deadline_after(std::chrono::nanoseconds(0));
    auto root = plan.Build();
    root->BindContext(&ctx);
    auto result = ::mpfdb::exec::Run(*root, "out", &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status();
    EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
    EXPECT_EQ(spill_dir.NumFiles(), 0u);
  }

  // Tight-but-live deadlines across a few magnitudes: whichever side of the
  // race each run lands on, the outcome is clean.
  for (auto budget : {std::chrono::microseconds(50),
                      std::chrono::microseconds(500),
                      std::chrono::microseconds(5000)}) {
    ScopedTempDir spill_dir("deadline");
    QueryContext ctx;
    ctx.set_memory_limit(8 * 1024);
    ctx.set_spill_enabled(true);
    ctx.set_spill_dir(spill_dir.path());
    ctx.set_deadline_after(budget);
    auto root = plan.Build();
    root->BindContext(&ctx);
    auto result = ::mpfdb::exec::Run(*root, "out", &ctx);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status();
    }
    EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
    EXPECT_EQ(spill_dir.NumFiles(), 0u);
  }
}

// Injected IO faults under spilling execution, seeds 1-8 at two fault
// rates: every run either completes bit-identical to the fault-free golden
// or fails with a clean expected Status, no run leaves bytes charged or a
// spill file behind, and each rate injects at least one fault.
TEST(ParallelStressTest, FaultSeedsUnderParallelSpillLeaveNoSpillFiles) {
  const uint64_t env_seed = EnvSeed();
  const std::set<StatusCode> allowed = {
      StatusCode::kCancelled, StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted, StatusCode::kInternal};
  std::map<double, uint64_t> faults;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919 + env_seed * 104729);
    RandomPlan plan = RandomPlan::Make(rng);

    auto golden_root = plan.Build();
    auto golden = ::mpfdb::exec::Run(*golden_root, "golden");
    ASSERT_TRUE(golden.ok()) << golden.status();
    SortCanonically(**golden);

    for (double probability : {0.02, 0.05}) {
      ScopedTempDir spill_dir("faults");
      FaultInjector::Config fault;
      fault.seed = seed ^ (env_seed * 0x9e3779b97f4a7c15ULL);
      fault.probability = probability;
      ScopedFaultInjection scoped(fault);

      QueryContext ctx;
      ctx.set_memory_limit(4 * 1024);
      ctx.set_spill_enabled(true);
      ctx.set_spill_dir(spill_dir.path());
      auto root = plan.Build();
      root->BindContext(&ctx);
      auto result = ::mpfdb::exec::Run(*root, "out", &ctx);
      std::string where =
          "seed=" + std::to_string(seed) + "/p=" + std::to_string(probability);
      if (result.ok()) {
        SortCanonically(**result);
        EXPECT_TRUE(fr::TablesEqual(**golden, **result, 0.0)) << where;
      } else {
        EXPECT_TRUE(allowed.count(result.status().code()))
            << where << ": " << result.status();
        EXPECT_FALSE(result.status().message().empty()) << where;
      }
      EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
      EXPECT_EQ(spill_dir.NumFiles(), 0u) << where;
      faults[probability] += FaultInjector::fault_count();
    }
  }
  for (const auto& [probability, count] : faults) {
    EXPECT_GT(count, 0u) << "no fault injected at p=" << probability;
  }
}

}  // namespace
}  // namespace mpfdb::exec
