// Unit-level contract of the LeapFrog TrieJoin and its sorted-array trie
// iterator: the Open/Up/Next/Seek protocol over handcrafted arenas
// (including hostile all-duplicate keys), and the operator's equivalences —
// against a binary hash cascade on the same inputs, serial vs morsel-
// parallel emission, in-memory vs spill-degraded execution — plus
// cancellation propagation from staging.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "exec/thread_pool.h"
#include "exec/trie_join.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb::exec {
namespace {

TablePtr PairTable(const std::string& name, const std::string& a,
                   const std::string& b, int64_t domain, size_t rows,
                   Rng& rng) {
  auto t = std::make_shared<Table>(name, Schema({a, b}, "f"));
  std::set<std::pair<VarValue, VarValue>> seen;
  while (t->NumRows() < rows) {
    auto va = static_cast<VarValue>(rng.UniformInt(0, domain - 1));
    auto vb = static_cast<VarValue>(rng.UniformInt(0, domain - 1));
    if (!seen.insert({va, vb}).second) continue;
    t->AppendRow({va, vb}, rng.UniformDouble(0.25, 2.0));
  }
  return t;
}

// Canonical multiset form: rows sorted by variables then measure bits, so
// operators with different emission orders compare exactly.
TablePtr Canonical(const Table& t) {
  struct Entry {
    std::vector<VarValue> vars;
    double measure;
  };
  std::vector<Entry> entries;
  entries.reserve(t.NumRows());
  const size_t arity = t.schema().arity();
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    entries.push_back(
        Entry{std::vector<VarValue>(row.vars, row.vars + arity), row.measure});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    if (x.vars != y.vars) return x.vars < y.vars;
    return x.measure < y.measure;
  });
  auto out = std::make_shared<Table>(t.name() + "_canon", t.schema());
  for (const Entry& e : entries) out->AppendRow(e.vars, e.measure);
  return out;
}

// The forced-pairwise golden on the same children: hash cascade in child
// order (the same multiply grouping TrieJoin uses), projected to var_order.
OperatorPtr HashCascade(const std::vector<TablePtr>& tables,
                        const std::vector<std::string>& var_order,
                        const Semiring& semiring) {
  OperatorPtr op = std::make_unique<SeqScan>(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) {
    op = std::make_unique<HashProductJoin>(
        std::move(op), std::make_unique<SeqScan>(tables[i]), semiring);
  }
  return std::make_unique<StreamProject>(std::move(op), var_order);
}

// --- TrieIterator ----------------------------------------------------------

TEST(TrieIteratorTest, WalksImplicitTrie) {
  // Sorted arity-2 arena with a duplicate full key (2,5).
  const std::vector<VarValue> rows = {1, 10, 1, 20, 2, 5, 2, 5, 4, 7};
  TrieIterator it(rows.data(), 5, 2);
  EXPECT_EQ(it.depth(), -1);

  it.Open();
  EXPECT_EQ(it.depth(), 0);
  EXPECT_FALSE(it.AtEnd());
  EXPECT_EQ(it.Key(), 1);
  EXPECT_EQ(it.block_begin(), 0u);
  EXPECT_EQ(it.block_end(), 2u);

  it.Next();
  EXPECT_EQ(it.Key(), 2);
  it.Open();  // descend into key 2's run
  EXPECT_EQ(it.depth(), 1);
  EXPECT_EQ(it.Key(), 5);
  // Deepest level: the block is the duplicate-row run.
  EXPECT_EQ(it.block_begin(), 2u);
  EXPECT_EQ(it.block_end(), 4u);
  it.Next();
  EXPECT_TRUE(it.AtEnd());

  it.Up();
  EXPECT_EQ(it.depth(), 0);
  EXPECT_EQ(it.Key(), 2);
  it.Seek(3);
  EXPECT_EQ(it.Key(), 4);
  it.Open();
  EXPECT_EQ(it.Key(), 7);
  it.Up();

  // Seek never moves backwards.
  it.Seek(0);
  EXPECT_EQ(it.Key(), 4);
  it.Seek(100);
  EXPECT_TRUE(it.AtEnd());

  // Seeks and Nexts were counted per depth; Open is not counted.
  ASSERT_EQ(it.level_stats().size(), 2u);
  EXPECT_GT(it.level_stats()[0].seeks, 0u);
  EXPECT_GT(it.level_stats()[0].nexts, 0u);
  EXPECT_GT(it.level_stats()[1].nexts, 0u);
}

TEST(TrieIteratorTest, HostileAllDuplicateKeys) {
  // Every row is the identical key: each level has exactly one child whose
  // run is the whole arena.
  const size_t kRows = 6;
  std::vector<VarValue> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.insert(rows.end(), {3, 3, 3});
  }
  TrieIterator it(rows.data(), kRows, 3);
  for (int d = 0; d < 3; ++d) {
    it.Open();
    EXPECT_EQ(it.depth(), d);
    ASSERT_FALSE(it.AtEnd());
    EXPECT_EQ(it.Key(), 3);
    EXPECT_EQ(it.block_begin(), 0u);
    EXPECT_EQ(it.block_end(), kRows);
  }
  // Seek within the level: landing on the only key, then past it.
  it.Seek(3);
  EXPECT_EQ(it.Key(), 3);
  it.Seek(4);
  EXPECT_TRUE(it.AtEnd());
  it.Up();
  EXPECT_EQ(it.depth(), 1);
  EXPECT_EQ(it.Key(), 3);
  it.Next();
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIteratorTest, EmptyRelationIsAtEndImmediately) {
  TrieIterator it(nullptr, 0, 2);
  it.Open();
  EXPECT_TRUE(it.AtEnd());
}

// --- TrieJoin ---------------------------------------------------------------

class TrieJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const uint64_t seed = CaseSeed(17);
    Rng rng(seed);
    r_ = PairTable("r", "a", "b", 20, 140, rng);
    s_ = PairTable("s", "b", "c", 20, 140, rng);
    t_ = PairTable("t", "c", "a", 20, 140, rng);
  }

  std::unique_ptr<TrieJoin> MakeTriangle() {
    std::vector<OperatorPtr> children;
    children.push_back(std::make_unique<SeqScan>(r_));
    children.push_back(std::make_unique<SeqScan>(s_));
    children.push_back(std::make_unique<SeqScan>(t_));
    return std::make_unique<TrieJoin>(std::move(children), var_order_,
                                      Semiring::SumProduct());
  }

  TablePtr r_, s_, t_;
  const std::vector<std::string> var_order_ = {"a", "b", "c"};
};

TEST_F(TrieJoinTest, TriangleMatchesHashCascade) {
  auto golden_op = HashCascade({r_, s_, t_}, var_order_, Semiring::SumProduct());
  auto golden = mpfdb::exec::Run(*golden_op, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();

  auto trie = MakeTriangle();
  auto result = mpfdb::exec::Run(*trie, "out");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT((*result)->NumRows(), 0u);
  EXPECT_TRUE(
      fr::TablesEqual(*Canonical(**golden), *Canonical(**result), 0.0));
}

TEST_F(TrieJoinTest, DuplicateKeysEmitFullCrossProduct) {
  // Two children over the same single variable with duplicate keys: 3 copies
  // of x=7 times 2 copies of x=7 must emit 6 rows (child-major order), each
  // measure a pure product.
  auto l = std::make_shared<Table>("l", Schema({"x"}, "f"));
  for (double m : {2.0, 3.0, 5.0}) l->AppendRow({7}, m);
  l->AppendRow({9}, 11.0);
  auto r = std::make_shared<Table>("rr", Schema({"x"}, "g"));
  for (double m : {0.5, 0.25}) r->AppendRow({7}, m);

  std::vector<OperatorPtr> children;
  children.push_back(std::make_unique<SeqScan>(l));
  children.push_back(std::make_unique<SeqScan>(r));
  TrieJoin join(std::move(children), {"x"}, Semiring::SumProduct());
  auto result = mpfdb::exec::Run(join, "out");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ((*result)->NumRows(), 6u);
  const std::vector<double> want = {2.0 * 0.5,  2.0 * 0.25, 3.0 * 0.5,
                                    3.0 * 0.25, 5.0 * 0.5,  5.0 * 0.25};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*result)->Row(i).vars[0], 7);
    EXPECT_EQ((*result)->measure(i), want[i]);
  }
}

TEST_F(TrieJoinTest, MorselStreamsReproduceSerialOrder) {
  auto serial_op = MakeTriangle();
  auto serial = mpfdb::exec::Run(*serial_op, "serial");
  ASSERT_TRUE(serial.ok()) << serial.status();

  ThreadPool pool(4);
  QueryContext ctx;
  ctx.set_thread_pool(&pool);
  auto parallel_op = MakeTriangle();
  parallel_op->BindContext(&ctx);
  auto parallel = mpfdb::exec::Run(*parallel_op, "parallel", &ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  // Concatenated stream outputs must equal the serial emission bit for bit,
  // row order included.
  EXPECT_TRUE(fr::TablesEqual(**serial, **parallel, 0.0));
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

TEST_F(TrieJoinTest, SpillDegradationKeepsTheSameMultiset) {
  auto golden_op = MakeTriangle();
  auto golden = mpfdb::exec::Run(*golden_op, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();

  QueryContext ctx;
  ctx.set_memory_limit(1024);
  ctx.set_spill_enabled(true);
  ctx.set_spill_dir(::testing::TempDir());
  auto degraded_op = MakeTriangle();
  degraded_op->BindContext(&ctx);
  auto degraded = mpfdb::exec::Run(*degraded_op, "degraded", &ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  // Degraded mode joins pairwise off disk: order may differ, the multiset —
  // including every measure bit — may not.
  EXPECT_TRUE(
      fr::TablesEqual(*Canonical(**golden), *Canonical(**degraded), 0.0));
  EXPECT_GT(ctx.stats().spill_files, 0u);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

TEST_F(TrieJoinTest, CancellationPropagatesFromStaging) {
  QueryContext ctx;
  ctx.RequestCancel();
  auto op = MakeTriangle();
  op->BindContext(&ctx);
  auto result = mpfdb::exec::Run(*op, "out", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(TrieJoinTest, OpenRejectsIncompleteVarOrder) {
  std::vector<OperatorPtr> children;
  children.push_back(std::make_unique<SeqScan>(r_));
  children.push_back(std::make_unique<SeqScan>(s_));
  TrieJoin join(std::move(children), {"a", "b"},  // misses "c"
                Semiring::SumProduct());
  EXPECT_FALSE(join.Open().ok());
}

}  // namespace
}  // namespace mpfdb::exec
