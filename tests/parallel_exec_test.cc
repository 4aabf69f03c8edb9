// The morsel stream order contract of intra-query parallelism: the
// concatenation of a parallel scan's morsel streams replays the serial row
// stream exactly. (Answers under threads, key modes and spills are the
// differential driver's, tests/differential_test.cc.) The same
// MPFDB_TEST_SEED env knob as every property test shifts the seed, and the
// case prints its effective seed on failure.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "random_view.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

// Unit-measure random table with unique variable tuples.
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

// The stream order contract at the raw operator level: without any final
// sort, the concatenation of a parallel scan's morsel streams must replay
// the serial row stream exactly, in order.
TEST(ParallelChainTest, MorselStreamsConcatenateToSerialOrder) {
  const uint64_t seed = CaseSeed(2);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  TablePtr t = RandomUnitTable("t", {"x", "y"}, {64, 64}, 3000, rng);

  auto drain = [](exec::PhysicalOperator& op,
                  std::vector<std::vector<VarValue>>* rows,
                  std::vector<double>* measures) {
    ASSERT_TRUE(op.Open().ok());
    exec::RowBatch batch;
    while (true) {
      auto more = op.NextBatch(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      const size_t arity = op.output_schema().arity();
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<VarValue> row(arity);
        for (size_t c = 0; c < arity; ++c) row[c] = batch.col(c)[r];
        rows->push_back(std::move(row));
        measures->push_back(batch.measures()[r]);
      }
    }
    op.Close();
  };

  exec::SeqScan serial(t);
  std::vector<std::vector<VarValue>> serial_rows, parallel_rows;
  std::vector<double> serial_measures, parallel_measures;
  drain(serial, &serial_rows, &serial_measures);

  exec::SeqScan parallel(t);
  ASSERT_TRUE(parallel.SupportsMorselStreams());
  auto streams = parallel.MakeMorselStreams(5);
  ASSERT_TRUE(streams.ok()) << streams.status();
  ASSERT_GT(streams->size(), 1u);
  for (auto& stream : *streams) {
    drain(*stream, &parallel_rows, &parallel_measures);
  }

  EXPECT_EQ(serial_rows, parallel_rows);
  EXPECT_EQ(serial_measures, parallel_measures);
}

}  // namespace
}  // namespace mpfdb
