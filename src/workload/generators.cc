#include "workload/generators.h"

#include <unordered_set>

namespace mpfdb::workload {
namespace {

// Samples `count` distinct (a, b) pairs from [0, a_domain) x [0, b_domain)
// and appends rows with measures drawn from [measure_lo, measure_hi).
// When `count` covers a large fraction of the cross product, enumerates and
// thins instead of rejection-sampling.
void FillPairTable(Table& table, int64_t a_domain, int64_t b_domain,
                   int64_t count, double measure_lo, double measure_hi,
                   Rng& rng) {
  const double cross =
      static_cast<double>(a_domain) * static_cast<double>(b_domain);
  count = std::min<int64_t>(count, static_cast<int64_t>(cross));
  table.Reserve(static_cast<size_t>(count));
  if (static_cast<double>(count) > 0.5 * cross) {
    // Dense: Bernoulli-thin the full cross product to hit `count` expected
    // rows, then top up/trim deterministically.
    double p = static_cast<double>(count) / cross;
    std::vector<std::pair<VarValue, VarValue>> kept;
    for (int64_t a = 0; a < a_domain; ++a) {
      for (int64_t b = 0; b < b_domain; ++b) {
        if (rng.Bernoulli(p)) {
          kept.emplace_back(static_cast<VarValue>(a), static_cast<VarValue>(b));
        }
      }
    }
    for (const auto& [a, b] : kept) {
      table.AppendRow({a, b}, rng.UniformDouble(measure_lo, measure_hi));
    }
    return;
  }
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(count) * 2);
  while (static_cast<int64_t>(table.NumRows()) < count) {
    int64_t a = rng.UniformInt(0, a_domain - 1);
    int64_t b = rng.UniformInt(0, b_domain - 1);
    uint64_t key = (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
    if (!seen.insert(key).second) continue;
    table.AppendRow({static_cast<VarValue>(a), static_cast<VarValue>(b)},
                    rng.UniformDouble(measure_lo, measure_hi));
  }
}

}  // namespace

StatusOr<SupplyChainSchema> GenerateSupplyChain(const SupplyChainParams& params,
                                                Catalog& catalog,
                                                const std::string& prefix) {
  Rng rng(params.seed);
  const std::string pid = prefix + "pid";
  const std::string sid = prefix + "sid";
  const std::string wid = prefix + "wid";
  const std::string cid = prefix + "cid";
  const std::string tid = prefix + "tid";
  MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(pid, params.num_parts()));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(sid, params.num_suppliers()));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(wid, params.num_warehouses()));
  MPFDB_RETURN_IF_ERROR(
      catalog.RegisterVariable(cid, params.num_contractors()));
  MPFDB_RETURN_IF_ERROR(
      catalog.RegisterVariable(tid, params.num_transporters()));

  // contracts(pid, sid; price): terms for a part's purchase from a supplier.
  auto contracts = std::make_shared<Table>(prefix + "contracts",
                                           Schema({pid, sid}, "price"));
  FillPairTable(*contracts, params.num_parts(), params.num_suppliers(),
                params.contracts_rows(), 1.0, 100.0, rng);
  MPFDB_RETURN_IF_ERROR(contracts->SetKeyVars({pid, sid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(contracts));

  // warehouses(wid, cid; w_overhead): each warehouse is operated by exactly
  // one contractor, so wid is the key.
  auto warehouses = std::make_shared<Table>(prefix + "warehouses",
                                            Schema({wid, cid}, "w_overhead"));
  warehouses->Reserve(static_cast<size_t>(params.warehouses_rows()));
  for (int64_t w = 0; w < params.warehouses_rows(); ++w) {
    VarValue c = static_cast<VarValue>(
        rng.UniformInt(0, params.num_contractors() - 1));
    warehouses->AppendRow({static_cast<VarValue>(w), c},
                          rng.UniformDouble(1.0, 2.0));
  }
  MPFDB_RETURN_IF_ERROR(warehouses->SetKeyVars({wid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(warehouses));

  // transporters(tid; t_overhead).
  auto transporters = std::make_shared<Table>(prefix + "transporters",
                                              Schema({tid}, "t_overhead"));
  transporters->Reserve(static_cast<size_t>(params.transporters_rows()));
  for (int64_t t = 0; t < params.transporters_rows(); ++t) {
    transporters->AppendRow({static_cast<VarValue>(t)},
                            rng.UniformDouble(1.0, 1.5));
  }
  MPFDB_RETURN_IF_ERROR(transporters->SetKeyVars({tid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(transporters));

  // location(pid, wid; quantity): quantity of each part sent to a warehouse.
  auto location = std::make_shared<Table>(prefix + "location",
                                          Schema({pid, wid}, "quantity"));
  FillPairTable(*location, params.num_parts(), params.num_warehouses(),
                params.location_rows(), 1.0, 50.0, rng);
  MPFDB_RETURN_IF_ERROR(location->SetKeyVars({pid, wid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(location));

  // ctdeals(cid, tid; ct_discount): contractor-transporter deals; density is
  // the Figure 7 knob.
  auto ctdeals = std::make_shared<Table>(prefix + "ctdeals",
                                         Schema({cid, tid}, "ct_discount"));
  FillPairTable(*ctdeals, params.num_contractors(), params.num_transporters(),
                params.ctdeals_rows(), 0.5, 1.0, rng);
  MPFDB_RETURN_IF_ERROR(ctdeals->SetKeyVars({cid, tid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(ctdeals));

  SupplyChainSchema schema;
  schema.view.name = prefix + "invest";
  schema.view.relations = {prefix + "contracts", prefix + "warehouses",
                           prefix + "transporters", prefix + "location",
                           prefix + "ctdeals"};
  schema.view.semiring = Semiring::SumProduct();
  schema.params = params;
  return schema;
}

StatusOr<MpfViewDef> AddStdeals(const SupplyChainSchema& schema,
                                Catalog& catalog, double density,
                                const std::string& prefix) {
  Rng rng(schema.params.seed + 1);
  const std::string sid = prefix + "sid";
  const std::string tid = prefix + "tid";
  auto stdeals = std::make_shared<Table>(prefix + "stdeals",
                                         Schema({sid, tid}, "st_discount"));
  int64_t rows = static_cast<int64_t>(
      density * static_cast<double>(schema.params.num_suppliers()) *
      static_cast<double>(schema.params.num_transporters()));
  FillPairTable(*stdeals, schema.params.num_suppliers(),
                schema.params.num_transporters(), rows, 0.5, 1.0, rng);
  MPFDB_RETURN_IF_ERROR(stdeals->SetKeyVars({sid, tid}));
  MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(stdeals));

  MpfViewDef view = schema.view;
  view.name += "_st";
  view.relations.push_back(prefix + "stdeals");
  return view;
}

std::string SyntheticKindName(SyntheticKind kind) {
  switch (kind) {
    case SyntheticKind::kStar:
      return "star";
    case SyntheticKind::kLinear:
      return "linear";
    case SyntheticKind::kMultistar:
      return "multistar";
  }
  return "unknown";
}

StatusOr<SyntheticSchema> GenerateSynthetic(const SyntheticParams& params,
                                            Catalog& catalog,
                                            const std::string& prefix) {
  if (params.num_tables < 1) {
    return Status::InvalidArgument("num_tables must be >= 1");
  }
  Rng rng(params.seed);
  SyntheticSchema schema;
  schema.view.name = prefix + SyntheticKindName(params.kind);
  schema.view.semiring = Semiring::SumProduct();

  // Chain variables v0..vN.
  for (int i = 0; i <= params.num_tables; ++i) {
    std::string var = prefix + "v" + std::to_string(i);
    MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.domain_size));
    schema.linear_vars.push_back(var);
  }
  // Common variables.
  if (params.kind == SyntheticKind::kStar) {
    std::string var = prefix + "c";
    MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.domain_size));
    schema.common_vars.push_back(var);
  } else if (params.kind == SyntheticKind::kMultistar) {
    // One common variable per group of three consecutive tables (stride 2 so
    // adjacent groups overlap in one table, keeping the view connected
    // through the common variables as well).
    for (int start = 0; start < params.num_tables; start += 2) {
      std::string var = prefix + "c" + std::to_string(start / 2);
      MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.domain_size));
      schema.common_vars.push_back(var);
    }
  }

  for (int i = 0; i < params.num_tables; ++i) {
    std::vector<std::string> vars = {schema.linear_vars[i],
                                     schema.linear_vars[i + 1]};
    if (params.kind == SyntheticKind::kStar) {
      vars.push_back(schema.common_vars[0]);
    } else if (params.kind == SyntheticKind::kMultistar) {
      for (size_t g = 0; g < schema.common_vars.size(); ++g) {
        int start = static_cast<int>(g) * 2;
        if (i >= start && i < start + 3) {
          vars.push_back(schema.common_vars[g]);
        }
      }
    }
    auto table = std::make_shared<Table>(
        prefix + "t" + std::to_string(i), Schema(vars, "f"));
    // Complete functional relation: every combination of the domains.
    int64_t total = 1;
    for (size_t k = 0; k < vars.size(); ++k) total *= params.domain_size;
    table->Reserve(static_cast<size_t>(total));
    std::vector<VarValue> row(vars.size(), 0);
    while (true) {
      table->AppendRow(row, rng.UniformDouble(0.5, 1.5));
      // Odometer increment.
      size_t pos = 0;
      while (pos < row.size()) {
        if (++row[pos] < params.domain_size) break;
        row[pos] = 0;
        ++pos;
      }
      if (pos == row.size()) break;
    }
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(table));
    schema.view.relations.push_back(table->name());
  }
  return schema;
}

StatusOr<CycleSchema> GenerateCycle(const CycleParams& params, Catalog& catalog,
                                    const std::string& prefix) {
  if (params.num_vars < 3) {
    return Status::InvalidArgument("a cycle needs num_vars >= 3");
  }
  if (params.density <= 0.0 || params.density > 1.0) {
    return Status::InvalidArgument("density must be in (0, 1]");
  }
  Rng rng(params.seed);
  CycleSchema schema;
  schema.view.name = prefix + "cycle" + std::to_string(params.num_vars);
  schema.view.semiring = Semiring::SumProduct();

  for (int i = 0; i < params.num_vars; ++i) {
    std::string var = prefix + "x" + std::to_string(i);
    MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.domain_size));
    schema.vars.push_back(var);
  }

  if (params.hub_fraction < 0.0 || params.hub_fraction > 1.0) {
    return Status::InvalidArgument("hub_fraction must be in [0, 1]");
  }
  int64_t per_edge = static_cast<int64_t>(
      params.density * static_cast<double>(params.domain_size) *
      static_cast<double>(params.domain_size));
  if (per_edge < 1) per_edge = 1;
  const int64_t hub_rows =
      static_cast<int64_t>(params.hub_fraction * static_cast<double>(per_edge));
  for (int i = 0; i < params.num_vars; ++i) {
    const std::string& a = schema.vars[static_cast<size_t>(i)];
    const std::string& b =
        schema.vars[static_cast<size_t>((i + 1) % params.num_vars)];
    auto table = std::make_shared<Table>(prefix + "e" + std::to_string(i),
                                         Schema({a, b}, "w"));
    if (hub_rows > 0) {
      // Skewed fill: pin hub rows to value 0 (half on each side, distinct
      // tuples only), then top up to per_edge with uniform pairs.
      std::unordered_set<uint64_t> seen;
      seen.reserve(static_cast<size_t>(per_edge) * 2);
      auto add = [&](VarValue va, VarValue vb) {
        uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(va)) << 32) |
            static_cast<uint32_t>(vb);
        if (!seen.insert(key).second) return;
        table->AppendRow({va, vb}, rng.UniformDouble(0.5, 1.5));
      };
      for (int64_t k = 0; k < hub_rows / 2; ++k) {
        add(0, static_cast<VarValue>(
                   rng.UniformInt(0, params.domain_size - 1)));
      }
      for (int64_t k = hub_rows / 2; k < hub_rows; ++k) {
        add(static_cast<VarValue>(rng.UniformInt(0, params.domain_size - 1)),
            0);
      }
      while (static_cast<int64_t>(table->NumRows()) < per_edge) {
        add(static_cast<VarValue>(rng.UniformInt(0, params.domain_size - 1)),
            static_cast<VarValue>(rng.UniformInt(0, params.domain_size - 1)));
      }
    } else {
      FillPairTable(*table, params.domain_size, params.domain_size, per_edge,
                    0.5, 1.5, rng);
    }
    MPFDB_RETURN_IF_ERROR(table->SetKeyVars({a, b}));
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(table));
    schema.view.relations.push_back(table->name());
  }
  return schema;
}

StatusOr<GridSchema> GenerateGrid(const GridParams& params, Catalog& catalog,
                                  const std::string& prefix) {
  if (params.rows < 2 || params.cols < 2) {
    return Status::InvalidArgument("grid needs rows >= 2 and cols >= 2");
  }
  Rng rng(params.seed);
  GridSchema schema;
  schema.view.name = prefix + "grid";
  schema.view.semiring = Semiring::SumProduct();

  for (int r = 0; r < params.rows; ++r) {
    for (int c = 0; c < params.cols; ++c) {
      std::string var =
          prefix + "g" + std::to_string(r) + "_" + std::to_string(c);
      MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.domain_size));
      schema.vars.push_back(var);
    }
  }
  auto cell = [&](int r, int c) -> const std::string& {
    return schema.vars[static_cast<size_t>(r) * params.cols + c];
  };
  auto add_potential = [&](const std::string& a,
                           const std::string& b) -> Status {
    auto table = std::make_shared<Table>(prefix + "p_" + a + "_" + b,
                                         Schema({a, b}, "phi"));
    table->Reserve(
        static_cast<size_t>(params.domain_size * params.domain_size));
    for (int64_t va = 0; va < params.domain_size; ++va) {
      for (int64_t vb = 0; vb < params.domain_size; ++vb) {
        table->AppendRow(
            {static_cast<VarValue>(va), static_cast<VarValue>(vb)},
            rng.UniformDouble(0.5, 1.5));
      }
    }
    MPFDB_RETURN_IF_ERROR(table->SetKeyVars({a, b}));
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(table));
    schema.view.relations.push_back(table->name());
    return Status::Ok();
  };
  for (int r = 0; r < params.rows; ++r) {
    for (int c = 0; c < params.cols; ++c) {
      if (c + 1 < params.cols) {
        MPFDB_RETURN_IF_ERROR(add_potential(cell(r, c), cell(r, c + 1)));
      }
      if (r + 1 < params.rows) {
        MPFDB_RETURN_IF_ERROR(add_potential(cell(r, c), cell(r + 1, c)));
      }
    }
  }
  return schema;
}

StatusOr<MatrixChainSchema> GenerateMatrixChain(const MatrixChainParams& params,
                                                Catalog& catalog,
                                                const std::string& prefix) {
  if (params.dims.size() < 2) {
    return Status::InvalidArgument("matrix chain needs at least 2 dims");
  }
  Rng rng(params.seed);
  MatrixChainSchema schema;
  schema.view.name = prefix + "matchain";
  schema.view.semiring = Semiring::SumProduct();

  for (size_t i = 0; i < params.dims.size(); ++i) {
    if (params.dims[i] < 1) {
      return Status::InvalidArgument("matrix dims must be >= 1");
    }
    std::string var = prefix + "d" + std::to_string(i);
    MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.dims[i]));
    schema.vars.push_back(var);
  }
  for (size_t i = 0; i + 1 < params.dims.size(); ++i) {
    auto table = std::make_shared<Table>(
        prefix + "m" + std::to_string(i),
        Schema({schema.vars[i], schema.vars[i + 1]}, "val"));
    table->Reserve(static_cast<size_t>(params.dims[i] * params.dims[i + 1]));
    for (int64_t r = 0; r < params.dims[i]; ++r) {
      for (int64_t c = 0; c < params.dims[i + 1]; ++c) {
        table->AppendRow({static_cast<VarValue>(r), static_cast<VarValue>(c)},
                         rng.UniformDouble(-1.0, 1.0));
      }
    }
    MPFDB_RETURN_IF_ERROR(
        table->SetKeyVars({schema.vars[i], schema.vars[i + 1]}));
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(table));
    schema.view.relations.push_back(table->name());
  }
  return schema;
}

StatusOr<ReachabilitySchema> GenerateReachability(
    const ReachabilityParams& params, Catalog& catalog,
    const std::string& prefix) {
  if (params.num_nodes < 2 || params.path_len < 1) {
    return Status::InvalidArgument(
        "reachability needs num_nodes >= 2 and path_len >= 1");
  }
  Rng rng(params.seed);
  ReachabilitySchema schema;
  schema.view.name = prefix + "reach";
  schema.view.semiring = Semiring::BoolOrAnd();

  for (int i = 0; i <= params.path_len; ++i) {
    std::string var = prefix + "n" + std::to_string(i);
    MPFDB_RETURN_IF_ERROR(catalog.RegisterVariable(var, params.num_nodes));
    schema.vars.push_back(var);
  }
  // One edge set, instantiated per hop so every hop table has identical
  // adjacency (a walk in a fixed graph).
  std::vector<std::pair<VarValue, VarValue>> edges;
  for (int64_t u = 0; u < params.num_nodes; ++u) {
    for (int64_t v = 0; v < params.num_nodes; ++v) {
      if (rng.Bernoulli(params.edge_density)) {
        edges.emplace_back(static_cast<VarValue>(u), static_cast<VarValue>(v));
      }
    }
  }
  if (edges.empty()) edges.emplace_back(0, 0);  // keep the view non-empty
  for (int i = 0; i < params.path_len; ++i) {
    auto table = std::make_shared<Table>(
        prefix + "hop" + std::to_string(i),
        Schema({schema.vars[static_cast<size_t>(i)],
                schema.vars[static_cast<size_t>(i) + 1]},
               "present"));
    table->Reserve(edges.size());
    for (const auto& [u, v] : edges) {
      table->AppendRow({u, v}, 1.0);
    }
    MPFDB_RETURN_IF_ERROR(
        table->SetKeyVars({schema.vars[static_cast<size_t>(i)],
                           schema.vars[static_cast<size_t>(i) + 1]}));
    MPFDB_RETURN_IF_ERROR(catalog.RegisterTable(table));
    schema.view.relations.push_back(table->name());
  }
  return schema;
}

}  // namespace mpfdb::workload
