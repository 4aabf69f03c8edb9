#include "fr/algebra.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <unordered_map>

namespace mpfdb::fr {
namespace {

// The reference operators key std::unordered_maps on vectors of variable
// values: deliberately none of the engine's hash tables, so that a bug in
// those cannot hide behind an oracle that shares it. Every output below is
// canonically re-sorted (or order-free), so iteration order is never
// observable.
using Key = std::vector<VarValue>;

struct KeyHash {
  size_t operator()(const Key& key) const {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the values
    for (VarValue v : key) {
      h ^= static_cast<uint32_t>(v);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

template <typename V>
using KeyMap = std::unordered_map<Key, V, KeyHash>;

std::vector<size_t> IndicesOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const auto& name : names) {
    indices.push_back(*schema.IndexOf(name));
  }
  return indices;
}

void SortCanonical(Table& t) {
  std::vector<size_t> all(t.schema().arity());
  std::iota(all.begin(), all.end(), 0);
  t.SortByVariables(all);
}

// Shared implementation of ProductJoin / DivisionJoin; `divide` selects the
// measure combiner.
StatusOr<TablePtr> JoinImpl(const Table& a, const Table& b,
                            const Semiring& semiring,
                            const std::string& result_name, bool divide) {
  if (divide && !semiring.HasDivision()) {
    return Status::FailedPrecondition("semiring '" + semiring.name() +
                                      "' has no division");
  }
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  std::vector<std::string> shared = varset::Intersect(sa.variables(), sb.variables());
  std::vector<std::string> out_vars = varset::Union(sa.variables(), sb.variables());
  Schema out_schema(out_vars, sa.measure_name());
  auto result = std::make_shared<Table>(result_name, out_schema);

  // Build on the smaller input, probe with the larger; for a division join
  // the asymmetry of Divide forces the roles to stay fixed, so we always
  // build on b there.
  const bool build_on_a = !divide && a.NumRows() < b.NumRows();
  const Table& build = build_on_a ? a : b;
  const Table& probe = build_on_a ? b : a;

  const std::vector<size_t> build_key = IndicesOf(build.schema(), shared);
  const std::vector<size_t> probe_key = IndicesOf(probe.schema(), shared);

  KeyMap<std::vector<size_t>> build_rows;
  build_rows.reserve(build.NumRows());
  Key key(shared.size());
  for (size_t i = 0; i < build.NumRows(); ++i) {
    RowView row = build.Row(i);
    for (size_t k = 0; k < build_key.size(); ++k) key[k] = row.var(build_key[k]);
    build_rows[key].push_back(i);
  }

  // Column mapping from (probe row, build row) to the output layout.
  // out_vars is Union(a.vars, b.vars) in a-then-b order; resolve each output
  // column to a (which_side, index) pair.
  struct Source {
    bool from_probe;
    size_t index;
  };
  std::vector<Source> sources;
  sources.reserve(out_vars.size());
  for (const auto& name : out_vars) {
    if (auto idx = probe.schema().IndexOf(name)) {
      sources.push_back(Source{true, *idx});
    } else {
      sources.push_back(Source{false, *build.schema().IndexOf(name)});
    }
  }

  std::vector<VarValue> out_row(out_vars.size());
  for (size_t i = 0; i < probe.NumRows(); ++i) {
    RowView prow = probe.Row(i);
    for (size_t k = 0; k < probe_key.size(); ++k) key[k] = prow.var(probe_key[k]);
    auto matches = build_rows.find(key);
    if (matches == build_rows.end()) continue;
    for (size_t j : matches->second) {
      RowView brow = build.Row(j);
      for (size_t c = 0; c < sources.size(); ++c) {
        out_row[c] = sources[c].from_probe ? prow.var(sources[c].index)
                                           : brow.var(sources[c].index);
      }
      double measure;
      if (divide) {
        // probe is a (the dividend), build is b (the divisor).
        measure = semiring.Divide(prow.measure, brow.measure);
      } else {
        measure = semiring.Multiply(prow.measure, brow.measure);
      }
      result->AppendRow(out_row, measure);
    }
  }
  SortCanonical(*result);
  return result;
}

}  // namespace

StatusOr<TablePtr> ProductJoin(const Table& a, const Table& b,
                               const Semiring& semiring,
                               const std::string& result_name) {
  return JoinImpl(a, b, semiring, result_name, /*divide=*/false);
}

StatusOr<TablePtr> DivisionJoin(const Table& a, const Table& b,
                                const Semiring& semiring,
                                const std::string& result_name) {
  return JoinImpl(a, b, semiring, result_name, /*divide=*/true);
}

StatusOr<TablePtr> Marginalize(const Table& t,
                               const std::vector<std::string>& group_vars,
                               const Semiring& semiring,
                               const std::string& result_name) {
  const Schema& schema = t.schema();
  for (const auto& name : group_vars) {
    if (!schema.HasVariable(name)) {
      return Status::InvalidArgument("group variable '" + name +
                                     "' not in relation " + t.name());
    }
  }
  Schema out_schema(group_vars, schema.measure_name());
  auto result = std::make_shared<Table>(result_name, out_schema);

  const std::vector<size_t> key_idx = IndicesOf(schema, group_vars);
  // Each group folds its rows in arrival order.
  KeyMap<double> groups;
  groups.reserve(t.NumRows());
  Key key(group_vars.size());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    for (size_t k = 0; k < key_idx.size(); ++k) key[k] = row.var(key_idx[k]);
    auto [it, inserted] = groups.try_emplace(key, row.measure);
    if (!inserted) it->second = semiring.Add(it->second, row.measure);
  }
  for (const auto& [group, measure] : groups) result->AppendRow(group, measure);
  SortCanonical(*result);
  return result;
}

StatusOr<TablePtr> Select(const Table& t, const std::string& var,
                          VarValue value, const std::string& result_name) {
  auto idx = t.schema().IndexOf(var);
  if (!idx) {
    return Status::InvalidArgument("selection variable '" + var +
                                   "' not in relation " + t.name());
  }
  auto result = std::make_shared<Table>(result_name, t.schema());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    if (row.var(*idx) == value) {
      result->AppendRowRaw(row.vars, row.measure);
    }
  }
  return result;
}

StatusOr<TablePtr> FilterMeasure(const Table& t, const HavingClause& having,
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

StatusOr<TablePtr> ProductSemijoin(const Table& t, const Table& s,
                                   const Semiring& semiring,
                                   const std::string& result_name) {
  std::vector<std::string> shared =
      varset::Intersect(t.schema().variables(), s.schema().variables());
  if (shared.empty()) {
    return Status::InvalidArgument("product semijoin of " + t.name() + " and " +
                                   s.name() + ": no shared variables");
  }
  MPFDB_ASSIGN_OR_RETURN(TablePtr s_marginal,
                         Marginalize(s, shared, semiring, "tmp_marg"));
  return ProductJoin(t, *s_marginal, semiring, result_name);
}

StatusOr<TablePtr> UpdateSemijoin(const Table& t, const Table& s,
                                  const Semiring& semiring,
                                  const std::string& result_name) {
  if (!semiring.HasDivision()) {
    return Status::FailedPrecondition(
        "update semijoin requires a semiring with division; '" +
        semiring.name() + "' has none");
  }
  std::vector<std::string> shared =
      varset::Intersect(t.schema().variables(), s.schema().variables());
  if (shared.empty()) {
    return Status::InvalidArgument("update semijoin of " + t.name() + " and " +
                                   s.name() + ": no shared variables");
  }
  MPFDB_ASSIGN_OR_RETURN(TablePtr s_marginal,
                         Marginalize(s, shared, semiring, "tmp_s_marg"));
  MPFDB_ASSIGN_OR_RETURN(TablePtr t_marginal,
                         Marginalize(t, shared, semiring, "tmp_t_marg"));
  MPFDB_ASSIGN_OR_RETURN(
      TablePtr message,
      DivisionJoin(*s_marginal, *t_marginal, semiring, "tmp_msg"));
  return ProductJoin(t, *message, semiring, result_name);
}

Status CheckFunctionalDependency(const Table& t) {
  KeyMap<size_t> seen;
  seen.reserve(t.NumRows());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    RowView row = t.Row(i);
    auto [it, inserted] =
        seen.try_emplace(Key(row.vars, row.vars + row.arity), i);
    if (!inserted) {
      return Status::FailedPrecondition(
          "FD violation in " + t.name() + ": rows " +
          std::to_string(it->second) + " and " + std::to_string(i) +
          " share variable values");
    }
  }
  return Status::Ok();
}

StatusOr<bool> IsComplete(const Table& t, const Catalog& catalog) {
  MPFDB_RETURN_IF_ERROR(CheckFunctionalDependency(t));
  double domain_product = 1.0;
  for (const auto& var : t.schema().variables()) {
    MPFDB_ASSIGN_OR_RETURN(int64_t size, catalog.DomainSize(var));
    domain_product *= static_cast<double>(size);
  }
  return static_cast<double>(t.NumRows()) == domain_product;
}

Status NormalizeMeasure(Table& t, const Semiring& semiring) {
  if (semiring.kind() != SemiringKind::kSumProduct) {
    return Status::FailedPrecondition(
        "NormalizeMeasure is only defined for the sum-product semiring");
  }
  double total = 0.0;
  for (size_t i = 0; i < t.NumRows(); ++i) total += t.measure(i);
  if (total == 0.0) {
    return Status::FailedPrecondition("cannot normalize: measures sum to zero");
  }
  for (size_t i = 0; i < t.NumRows(); ++i) {
    t.set_measure(i, t.measure(i) / total);
  }
  return Status::Ok();
}

StatusOr<TablePtr> EvaluateNaiveMpf(const std::vector<TablePtr>& relations,
                                    const std::vector<std::string>& query_vars,
                                    const std::vector<Selection>& selections,
                                    const Semiring& semiring,
                                    const std::string& result_name) {
  if (relations.empty()) {
    return Status::InvalidArgument("MPF view over zero relations");
  }
  // Apply selections to every relation containing the constrained variable
  // before joining; this is a plain filter and does not change semantics.
  std::vector<TablePtr> inputs;
  inputs.reserve(relations.size());
  for (const TablePtr& rel : relations) {
    TablePtr current = rel;
    for (const Selection& sel : selections) {
      if (current->schema().HasVariable(sel.var)) {
        MPFDB_ASSIGN_OR_RETURN(
            current, Select(*current, sel.var, sel.value, current->name()));
      }
    }
    inputs.push_back(current);
  }
  TablePtr joined = inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    MPFDB_ASSIGN_OR_RETURN(
        joined, ProductJoin(*joined, *inputs[i], semiring, "tmp_join"));
  }
  return Marginalize(*joined, query_vars, semiring, result_name);
}

bool TablesEqual(const Table& a, const Table& b, double tolerance) {
  // Measure names are labels chosen by whichever operand came first in a
  // join; only the variable layout is semantically relevant.
  if (a.schema().variables() != b.schema().variables()) return false;
  if (a.NumRows() != b.NumRows()) return false;
  const size_t arity = a.schema().arity();
  for (size_t i = 0; i < a.NumRows(); ++i) {
    RowView ra = a.Row(i);
    RowView rb = b.Row(i);
    if (arity > 0 &&
        std::memcmp(ra.vars, rb.vars, arity * sizeof(VarValue)) != 0) {
      return false;
    }
    const double scale =
        std::max({1.0, std::fabs(ra.measure), std::fabs(rb.measure)});
    if (std::fabs(ra.measure - rb.measure) > tolerance * scale) {
      // Treat infinities of the same sign as equal (min/max semirings).
      if (!(std::isinf(ra.measure) && std::isinf(rb.measure) &&
            std::signbit(ra.measure) == std::signbit(rb.measure))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mpfdb::fr
