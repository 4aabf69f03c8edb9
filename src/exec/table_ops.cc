#include "exec/table_ops.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/batch.h"
#include "exec/hash_table.h"
#include "fr/algebra.h"

namespace mpfdb::exec {
namespace {

// The direct-address fold takes a packed range of up to kDenseSlotsPerRow
// slots per input row (never fewer than kDenseMinSlots); wider ranges fold
// into a SwissTable, whose size follows the groups instead of the range.
constexpr uint64_t kDenseSlotsPerRow = 4;
constexpr uint64_t kDenseMinSlots = 1024;

// Reads a table in kBatchSize-row column blocks through
// Table::ReadRangeColumnar.
class BlockReader {
 public:
  explicit BlockReader(const Table& t)
      : t_(t), cols_(t.schema().arity() * kBatchSize), measures_(kBatchSize) {}

  // Calls fn(n) once per block of n rows; during the call col(c)[r] and
  // measures()[r] hold the block's row r.
  template <class Fn>
  void ForEach(Fn&& fn) {
    const size_t rows = t_.NumRows();
    for (size_t start = 0; start < rows; start += kBatchSize) {
      const size_t n = std::min(kBatchSize, rows - start);
      t_.ReadRangeColumnar(start, n, kBatchSize, cols_.data(),
                           measures_.data());
      fn(n);
    }
  }

  const VarValue* col(size_t c) const { return cols_.data() + c * kBatchSize; }
  const double* measures() const { return measures_.data(); }

 private:
  const Table& t_;
  std::vector<VarValue> cols_;
  std::vector<double> measures_;
};

// Mixed-radix packing of a key's positions: position j contributes
// (v - min_j) scaled by the radices of the positions after it, so the first
// position is the most significant and ascending packed keys are the
// lexicographic order of the key values.
class KeyPacker {
 public:
  explicit KeyPacker(size_t width)
      : min_(width, std::numeric_limits<VarValue>::max()),
        max_(width, std::numeric_limits<VarValue>::min()),
        radix_(width) {}

  // Widens position j's range to cover col[0], col[stride], ...,
  // col[(n - 1) * stride].
  void Observe(size_t j, const VarValue* col, size_t n, size_t stride = 1) {
    VarValue lo = min_[j], hi = max_[j];
    for (size_t r = 0; r < n; ++r) {
      lo = std::min(lo, col[r * stride]);
      hi = std::max(hi, col[r * stride]);
    }
    min_[j] = lo;
    max_[j] = hi;
  }

  // Fixes the radices after every value was observed (at least one per
  // position). False when the packed range does not fit in 64 bits.
  bool Finish() {
    range_ = 1;
    for (size_t j = 0; j < radix_.size(); ++j) {
      const int64_t span = int64_t{max_[j]} - int64_t{min_[j]};
      radix_[j] = static_cast<uint64_t>(span) + 1;
      if (__builtin_mul_overflow(range_, radix_[j], &range_)) return false;
    }
    return true;
  }

  // The packer of positions [begin, end), with their observed ranges; call
  // Finish() on it before packing.
  KeyPacker Slice(size_t begin, size_t end) const {
    KeyPacker slice(end - begin);
    std::copy(min_.begin() + begin, min_.begin() + end, slice.min_.begin());
    std::copy(max_.begin() + begin, max_.begin() + end, slice.max_.begin());
    return slice;
  }

  // Packed keys lie in [0, range()).
  uint64_t range() const { return range_; }

  // keys[r] = the packed key of row r, where position j's value of row r is
  // cols[j][r * stride].
  void Pack(const VarValue* const* cols, size_t n, uint64_t* keys,
            size_t stride = 1) const {
    std::fill(keys, keys + n, 0);
    for (size_t j = 0; j < radix_.size(); ++j) {
      const VarValue* col = cols[j];
      const int64_t lo = min_[j];
      const uint64_t radix = radix_[j];
      for (size_t r = 0; r < n; ++r) {
        keys[r] = keys[r] * radix + static_cast<uint64_t>(col[r * stride] - lo);
      }
    }
  }

  void Unpack(uint64_t key, VarValue* out) const {
    for (size_t j = radix_.size(); j-- > 0;) {
      out[j] = static_cast<VarValue>(min_[j] +
                                     static_cast<int64_t>(key % radix_[j]));
      key /= radix_[j];
    }
  }

 private:
  std::vector<VarValue> min_, max_;
  std::vector<uint64_t> radix_;
  uint64_t range_ = 1;
};

// Column indices of `names` in `schema` (every name must be present).
std::vector<size_t> ColumnsOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> cols;
  cols.reserve(names.size());
  for (const auto& name : names) cols.push_back(*schema.IndexOf(name));
  return cols;
}

// Observes `t`'s key columns `cols` into `packer` and returns pointers to
// those columns inside `reader`'s block buffers (stable across blocks).
std::vector<const VarValue*> ObserveKeys(BlockReader& reader,
                                         const std::vector<size_t>& cols,
                                         KeyPacker* packer) {
  reader.ForEach([&](size_t n) {
    for (size_t j = 0; j < cols.size(); ++j) {
      packer->Observe(j, reader.col(cols[j]), n);
    }
  });
  std::vector<const VarValue*> ptrs;
  ptrs.reserve(cols.size());
  for (size_t c : cols) ptrs.push_back(reader.col(c));
  return ptrs;
}

// A table's row-major variable block and its arity.
struct RowMajor {
  explicit RowMajor(const Table& t)
      : vars(t.Empty() ? nullptr : t.Row(0).vars),
        rows(t.NumRows()),
        arity(t.schema().arity()) {}

  const VarValue* row(size_t r) const { return vars + r * arity; }

  const VarValue* vars;
  size_t rows;
  size_t arity;
};

// The rows' keys packed over `cols`, through `packer` (already finished).
std::vector<uint64_t> PackRows(const RowMajor& t,
                               const std::vector<size_t>& cols,
                               const KeyPacker& packer) {
  std::vector<const VarValue*> ptrs;
  for (size_t c : cols) ptrs.push_back(t.vars + c);
  std::vector<uint64_t> keys(t.rows);
  packer.Pack(ptrs.data(), t.rows, keys.data(), t.arity);
  return keys;
}

// The row order sorted by key, ties in row order. Keys under 2^32 ride in
// the high half of one 64-bit word with their row below, sorted by an LSD
// radix over the key bits, 11 bits a pass; wider keys sort as (key, row)
// pairs.
std::vector<uint32_t> RadixOrder(const std::vector<uint64_t>& keys) {
  const size_t n = keys.size();
  const uint64_t max_key = *std::max_element(keys.begin(), keys.end());
  std::vector<uint32_t> order(n);
  if (max_key >> 32 != 0) {
    std::vector<std::pair<uint64_t, uint32_t>> pairs(n);
    for (size_t r = 0; r < n; ++r) {
      pairs[r] = {keys[r], static_cast<uint32_t>(r)};
    }
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 0; i < n; ++i) order[i] = pairs[i].second;
    return order;
  }
  constexpr int kDigitBits = 11;
  constexpr size_t kDigits = size_t{1} << kDigitBits;
  std::vector<uint64_t> cur(n), next(n);
  for (size_t r = 0; r < n; ++r) cur[r] = keys[r] << 32 | r;
  std::vector<size_t> count(kDigits + 1);
  for (int shift = 32; shift < 64 && (max_key >> (shift - 32)) != 0;
       shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (uint64_t e : cur) ++count[((e >> shift) & (kDigits - 1)) + 1];
    for (size_t d = 1; d <= kDigits; ++d) count[d] += count[d - 1];
    for (uint64_t e : cur) next[count[(e >> shift) & (kDigits - 1)]++] = e;
    cur.swap(next);
  }
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(cur[i]);
  return order;
}

// The order of `t`'s rows sorted lexicographically on columns `cols`, ties
// in row order. The columns pack into as few 64-bit words as they fit (a
// single column always fits). A linear check returns the identity when the
// rows already are in order; otherwise one word sorts by radix, and several
// words by comparing their tuples.
std::vector<uint32_t> LexOrder(const RowMajor& t,
                               const std::vector<size_t>& cols) {
  std::vector<uint32_t> order(t.rows);
  std::iota(order.begin(), order.end(), 0);
  if (cols.empty() || t.rows < 2) return order;
  KeyPacker all(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    all.Observe(j, t.vars + cols[j], t.rows, t.arity);
  }
  // words[w] = the keys of columns [bounds[w], bounds[w + 1]).
  std::vector<size_t> bounds = {0};
  std::vector<std::vector<uint64_t>> words;
  while (bounds.back() < cols.size()) {
    const size_t begin = bounds.back();
    size_t end = begin + 1;
    while (end < cols.size() && all.Slice(begin, end + 1).Finish()) ++end;
    KeyPacker word = all.Slice(begin, end);
    word.Finish();
    words.push_back(PackRows(
        t, std::vector<size_t>(cols.begin() + begin, cols.begin() + end),
        word));
    bounds.push_back(end);
  }
  auto less = [&](uint32_t x, uint32_t y) {
    for (const auto& w : words) {
      if (w[x] != w[y]) return w[x] < w[y];
    }
    return x < y;
  };
  bool sorted = true;
  for (size_t r = 1; r < t.rows && sorted; ++r) {
    sorted = !less(static_cast<uint32_t>(r), static_cast<uint32_t>(r - 1));
  }
  if (sorted) return order;
  if (words.size() == 1) return RadixOrder(words[0]);
  std::sort(order.begin(), order.end(), less);
  return order;
}

}  // namespace

std::vector<uint32_t> CanonicalRowOrder(const Table& t) {
  const RowMajor rows(t);
  std::vector<size_t> all(rows.arity);
  std::iota(all.begin(), all.end(), 0);
  return LexOrder(rows, all);
}

namespace {

// Per row of `from`, the row of `to` whose variables (in `to`'s schema
// order) equal `from`'s columns `from_cols`; every such row must exist. The
// fallback paths' row maps, found by binary search over `to` in canonical
// order.
std::vector<uint32_t> MatchRows(const Table& from,
                                const std::vector<size_t>& from_cols,
                                const Table& to) {
  const RowMajor f(from), g(to);
  const std::vector<uint32_t> sorted = CanonicalRowOrder(to);
  // Whether row `row` of `to` precedes the key at `k` (a row of `from`).
  auto less = [&](uint32_t row, const VarValue* k) {
    const VarValue* v = g.row(row);
    for (size_t c = 0; c < g.arity; ++c) {
      if (v[c] != k[from_cols[c]]) return v[c] < k[from_cols[c]];
    }
    return false;
  };
  std::vector<uint32_t> match(f.rows);
  for (size_t r = 0; r < f.rows; ++r) {
    match[r] = *std::lower_bound(sorted.begin(), sorted.end(), f.row(r), less);
  }
  return match;
}

// The measure column of `t` as one flat array: the table's own when flat,
// else a copy in `*copy`.
const double* FlatMeasures(const Table& t, std::vector<double>* copy) {
  if (!t.chunked()) return t.measures().data();
  copy->resize(t.NumRows());
  for (size_t r = 0; r < copy->size(); ++r) (*copy)[r] = t.measure(r);
  return copy->data();
}

}  // namespace

StatusOr<TablePtr> MarginalizeTable(const Table& t,
                                    const std::vector<std::string>& group_vars,
                                    const Semiring& semiring,
                                    const std::string& result_name,
                                    std::vector<uint32_t>* group_of) {
  const Schema& schema = t.schema();
  for (const auto& name : group_vars) {
    if (!schema.HasVariable(name)) {
      return Status::InvalidArgument("group variable '" + name +
                                     "' not in relation " + t.name());
    }
  }
  auto result = std::make_shared<Table>(
      result_name, Schema(group_vars, schema.measure_name()));
  if (group_of != nullptr) group_of->resize(t.NumRows());
  if (t.Empty()) return result;

  const size_t width = group_vars.size();
  BlockReader reader(t);
  KeyPacker packer(width);
  const std::vector<size_t> key_idx = ColumnsOf(schema, group_vars);
  const std::vector<const VarValue*> key_cols =
      ObserveKeys(reader, key_idx, &packer);
  if (!packer.Finish()) {
    MPFDB_ASSIGN_OR_RETURN(
        result, fr::Marginalize(t, group_vars, semiring, result_name));
    if (group_of != nullptr) *group_of = MatchRows(t, key_idx, *result);
    return result;
  }

  // Each group folds its rows in row order, seeded with its first measure.
  // groups: (packed key, folded measure), ascending by key once folded.
  // ids[r]: row r's direct-address slot, else its group's insertion index;
  // renumbered to the group's output row at the end.
  std::vector<std::pair<uint64_t, double>> groups;
  std::vector<uint64_t> keys(kBatchSize);
  uint32_t* ids = group_of != nullptr ? group_of->data() : nullptr;
  const uint64_t range = packer.range();
  const uint64_t rows = t.NumRows();
  if (range <= std::max(kDenseMinSlots, kDenseSlotsPerRow * rows)) {
    std::vector<double> acc(range);
    std::vector<uint8_t> seen(range, 0);
    DispatchAdd(semiring, [&](auto add) {
      size_t base = 0;
      reader.ForEach([&](size_t n) {
        packer.Pack(key_cols.data(), n, keys.data());
        const double* m = reader.measures();
        for (size_t r = 0; r < n; ++r) {
          const uint64_t k = keys[r];
          if (ids != nullptr) ids[base + r] = static_cast<uint32_t>(k);
          if (seen[k]) {
            acc[k] = add(acc[k], m[r]);
          } else {
            seen[k] = 1;
            acc[k] = m[r];
          }
        }
        base += n;
      });
    });
    std::vector<uint32_t> row_of_slot(ids != nullptr ? range : 0);
    for (uint64_t k = 0; k < range; ++k) {
      if (!seen[k]) continue;
      if (ids != nullptr) row_of_slot[k] = static_cast<uint32_t>(groups.size());
      groups.emplace_back(k, acc[k]);
    }
    if (ids != nullptr) {
      for (size_t r = 0; r < rows; ++r) ids[r] = row_of_slot[ids[r]];
    }
  } else {
    SwissTable<uint32_t> index(rows);
    DispatchAdd(semiring, [&](auto add) {
      size_t base = 0;
      reader.ForEach([&](size_t n) {
        packer.Pack(key_cols.data(), n, keys.data());
        const double* m = reader.measures();
        for (size_t r = 0; r < n; ++r) {
          auto [slot, inserted] = index.FindOrInsert(
              keys[r], static_cast<uint32_t>(groups.size()));
          if (ids != nullptr) ids[base + r] = *slot;
          if (inserted) {
            groups.emplace_back(keys[r], m[r]);
          } else {
            groups[*slot].second = add(groups[*slot].second, m[r]);
          }
        }
        base += n;
      });
    });
    std::sort(groups.begin(), groups.end());  // keys are distinct
    if (ids != nullptr) {
      // The index still maps each key to its group's insertion index.
      std::vector<uint32_t> row_of_group(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        row_of_group[*index.Find(groups[g].first)] = static_cast<uint32_t>(g);
      }
      for (size_t r = 0; r < rows; ++r) ids[r] = row_of_group[ids[r]];
    }
  }

  std::vector<VarValue> out_vars(groups.size() * width);
  std::vector<double> out_measures(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    packer.Unpack(groups[g].first, out_vars.data() + g * width);
    out_measures[g] = groups[g].second;
  }
  result->AppendRows(out_vars.data(), out_measures.data(), groups.size());
  return result;
}

StatusOr<TablePtr> JoinTables(const Table& a, const Table& b,
                              const Semiring& semiring,
                              const std::string& result_name, bool divide,
                              JoinRows* rows) {
  if (divide && !semiring.HasDivision()) {
    return Status::FailedPrecondition("semiring '" + semiring.name() +
                                      "' has no division");
  }
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  const std::vector<std::string> shared =
      varset::Intersect(sa.variables(), sb.variables());
  const std::vector<size_t> a_shared = ColumnsOf(sa, shared);
  const std::vector<size_t> b_shared = ColumnsOf(sb, shared);
  const std::vector<size_t> b_extra =
      ColumnsOf(sb, varset::Difference(sb.variables(), sa.variables()));
  auto result = std::make_shared<Table>(
      result_name, Schema(varset::Union(sa.variables(), sb.variables()),
                          sa.measure_name()));
  if (rows != nullptr) {
    rows->left.clear();
    rows->right.clear();
  }
  if (a.Empty() || b.Empty()) return result;

  const RowMajor ra(a), rb(b);
  KeyPacker packer(shared.size());
  for (size_t j = 0; j < shared.size(); ++j) {
    packer.Observe(j, ra.vars + a_shared[j], ra.rows, ra.arity);
    packer.Observe(j, rb.vars + b_shared[j], rb.rows, rb.arity);
  }
  if (!packer.Finish()) {
    MPFDB_ASSIGN_OR_RETURN(
        result, divide ? fr::DivisionJoin(a, b, semiring, result_name)
                       : fr::ProductJoin(a, b, semiring, result_name));
    if (rows != nullptr) {
      std::vector<size_t> a_cols(ra.arity);
      std::iota(a_cols.begin(), a_cols.end(), 0);
      rows->left = MatchRows(*result, a_cols, a);
      rows->right =
          MatchRows(*result, ColumnsOf(result->schema(), sb.variables()), b);
    }
    return result;
  }
  const std::vector<uint64_t> a_key = PackRows(ra, a_shared, packer);
  const std::vector<uint64_t> b_key = PackRows(rb, b_shared, packer);

  // b's rows in (shared key, added columns) order: the rows a row of a
  // matches form one run, already in output order.
  std::vector<size_t> b_order_cols = b_shared;
  b_order_cols.insert(b_order_cols.end(), b_extra.begin(), b_extra.end());
  const std::vector<uint32_t> b_order = LexOrder(rb, b_order_cols);
  std::vector<uint64_t> run_key(rb.rows);
  for (size_t p = 0; p < rb.rows; ++p) run_key[p] = b_key[b_order[p]];
  // Dense keys: b's run of key k is [run_start[k], run_start[k + 1]).
  const uint64_t range = packer.range();
  std::vector<uint32_t> run_start;
  if (range <=
      std::max(kDenseMinSlots, kDenseSlotsPerRow * (ra.rows + rb.rows))) {
    run_start.assign(range + 1, 0);
    for (uint64_t k : run_key) ++run_start[k + 1];
    for (uint64_t k = 0; k < range; ++k) run_start[k + 1] += run_start[k];
  }

  // Walk a in canonical order, recording each row's run of b.
  const std::vector<uint32_t> a_order = CanonicalRowOrder(a);
  std::vector<std::pair<uint32_t, uint32_t>> runs(ra.rows);
  size_t total = 0;
  for (size_t i = 0; i < ra.rows; ++i) {
    const uint64_t k = a_key[a_order[i]];
    if (!run_start.empty()) {
      runs[i] = {run_start[k], run_start[k + 1]};
    } else {
      auto [lo, hi] = std::equal_range(run_key.begin(), run_key.end(), k);
      runs[i] = {static_cast<uint32_t>(lo - run_key.begin()),
                 static_cast<uint32_t>(hi - run_key.begin())};
    }
    total += runs[i].second - runs[i].first;
  }

  // Emit. A product join multiplies in fr::ProductJoin's operand order (the
  // larger input first) so even NaN payloads match it.
  std::vector<double> a_copy, b_copy;
  const double* am = FlatMeasures(a, &a_copy);
  const double* bm = FlatMeasures(b, &b_copy);
  const bool b_first = !divide && ra.rows < rb.rows;
  const size_t out_arity = ra.arity + b_extra.size();
  std::vector<VarValue> out_vars(total * out_arity);
  std::vector<double> out_measures(total);
  if (rows != nullptr) {
    rows->left.resize(total);
    rows->right.resize(total);
  }
  size_t o = 0;
  for (size_t i = 0; i < ra.rows; ++i) {
    const uint32_t r = a_order[i];
    for (uint32_t p = runs[i].first; p < runs[i].second; ++p, ++o) {
      const uint32_t j = b_order[p];
      VarValue* out = out_vars.data() + o * out_arity;
      std::copy(ra.row(r), ra.row(r) + ra.arity, out);
      for (size_t c = 0; c < b_extra.size(); ++c) {
        out[ra.arity + c] = rb.row(j)[b_extra[c]];
      }
      out_measures[o] = divide    ? semiring.Divide(am[r], bm[j])
                        : b_first ? semiring.Multiply(bm[j], am[r])
                                  : semiring.Multiply(am[r], bm[j]);
      if (rows != nullptr) {
        rows->left[o] = r;
        rows->right[o] = j;
      }
    }
  }
  result->AppendRows(out_vars.data(), out_measures.data(), total);
  return result;
}

StatusOr<TablePtr> UpdateSemijoinTable(const Table& t, const Table& s,
                                       const Semiring& semiring,
                                       const std::string& result_name,
                                       SemijoinRows* rows) {
  if (!semiring.HasDivision()) {
    return Status::FailedPrecondition(
        "update semijoin requires a semiring with division; '" +
        semiring.name() + "' has none");
  }
  const std::vector<std::string> shared =
      varset::Intersect(t.schema().variables(), s.schema().variables());
  if (shared.empty()) {
    return Status::InvalidArgument("update semijoin of " + t.name() + " and " +
                                   s.name() + ": no shared variables");
  }
  std::vector<uint32_t> s_fold, t_fold;
  const bool want = rows != nullptr;
  MPFDB_ASSIGN_OR_RETURN(TablePtr s_marginal,
                         MarginalizeTable(s, shared, semiring, "tmp_s_marg",
                                          want ? &s_fold : nullptr));
  MPFDB_ASSIGN_OR_RETURN(TablePtr t_marginal,
                         MarginalizeTable(t, shared, semiring, "tmp_t_marg",
                                          want ? &t_fold : nullptr));
  JoinRows message_rows, out_rows;
  MPFDB_ASSIGN_OR_RETURN(
      TablePtr message,
      JoinTables(*s_marginal, *t_marginal, semiring, "tmp_msg",
                 /*divide=*/true, want ? &message_rows : nullptr));
  MPFDB_ASSIGN_OR_RETURN(
      TablePtr out, JoinTables(t, *message, semiring, result_name,
                               /*divide=*/false, want ? &out_rows : nullptr));
  if (want) {
    // A row of s's marginal reaches the group of t's marginal it divides.
    std::vector<uint32_t> group_of_s_marginal(s_marginal->NumRows(),
                                              SemijoinRows::kNoGroup);
    for (size_t m = 0; m < message_rows.left.size(); ++m) {
      group_of_s_marginal[message_rows.left[m]] = message_rows.right[m];
    }
    rows->num_groups = t_marginal->NumRows();
    rows->t_group_of = std::move(t_fold);
    rows->s_group_of.resize(s_fold.size());
    for (size_t r = 0; r < s_fold.size(); ++r) {
      rows->s_group_of[r] = group_of_s_marginal[s_fold[r]];
    }
    rows->out_to_t = std::move(out_rows.left);
  }
  return out;
}

TablePtr FilterMeasureTable(const Table& t, const HavingClause& having,
                            const std::string& result_name) {
  auto result = std::make_shared<Table>(result_name, t.schema());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    if (EvalCompare(having.op, row.measure, having.threshold)) {
      result->AppendRowRaw(row.vars, row.measure);
    }
  }
  return result;
}

}  // namespace mpfdb::exec
