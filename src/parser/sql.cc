#include "parser/sql.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "parser/tokenizer.h"
#include "util/strings.h"

namespace mpfdb::parser {
namespace {

StatusOr<SqlResult> CreateVariable(TokenCursor& cursor, Database& db) {
  MPFDB_ASSIGN_OR_RETURN(std::string name, cursor.ExpectIdentifier());
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("domain"));
  MPFDB_ASSIGN_OR_RETURN(int64_t domain, cursor.ExpectInteger());
  MPFDB_RETURN_IF_ERROR(db.catalog().RegisterVariable(name, domain));
  return SqlResult{"registered variable " + name + " with domain " +
                       std::to_string(domain),
                   nullptr};
}

StatusOr<SqlResult> SelectQueryForSubquery(TokenCursor& cursor, Database& db);

StatusOr<SqlResult> CreateTable(TokenCursor& cursor, Database& db) {
  MPFDB_ASSIGN_OR_RETURN(std::string name, cursor.ExpectIdentifier());
  // CREATE TABLE <name> AS SELECT ... — the result of an MPF query is
  // itself a functional relation (Section 2), so it can be materialized and
  // used in further MPF views; the query variables form its key.
  if (cursor.TryKeyword("as")) {
    MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("select"));
    MPFDB_ASSIGN_OR_RETURN(SqlResult inner, SelectQueryForSubquery(cursor, db));
    if (inner.table == nullptr) {
      return Status::Internal("subquery produced no table");
    }
    TablePtr materialized(inner.table->Clone(name));
    MPFDB_RETURN_IF_ERROR(
        materialized->SetKeyVars(materialized->schema().variables()));
    MPFDB_RETURN_IF_ERROR(db.CreateTable(std::move(materialized)));
    return SqlResult{"created table " + name + " from query (" +
                         std::to_string(inner.table->NumRows()) + " rows)",
                     nullptr};
  }
  MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("("));
  std::vector<std::string> columns;
  do {
    MPFDB_ASSIGN_OR_RETURN(std::string column, cursor.ExpectIdentifier());
    columns.push_back(std::move(column));
  } while (cursor.TrySymbol(","));
  if (columns.size() < 1) {
    return Status::InvalidArgument("table needs at least a measure column");
  }
  // Accept "(a, b; f)" or "(a, b, f)" — the last column is the measure when
  // no semicolon separates it.
  std::string measure;
  if (cursor.TrySymbol(";")) {
    MPFDB_ASSIGN_OR_RETURN(measure, cursor.ExpectIdentifier());
  } else {
    measure = columns.back();
    columns.pop_back();
  }
  MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(")"));
  auto table = std::make_shared<Table>(name, Schema(columns, measure));
  if (cursor.TryKeyword("key")) {
    MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("("));
    std::vector<std::string> key;
    do {
      MPFDB_ASSIGN_OR_RETURN(std::string column, cursor.ExpectIdentifier());
      key.push_back(std::move(column));
    } while (cursor.TrySymbol(","));
    MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(")"));
    MPFDB_RETURN_IF_ERROR(table->SetKeyVars(std::move(key)));
  }
  MPFDB_RETURN_IF_ERROR(db.CreateTable(std::move(table)));
  return SqlResult{"created table " + name, nullptr};
}

StatusOr<SqlResult> InsertInto(TokenCursor& cursor, Database& db) {
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("into"));
  MPFDB_ASSIGN_OR_RETURN(std::string name, cursor.ExpectIdentifier());
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, db.catalog().GetTable(name));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("values"));
  size_t inserted = 0;
  do {
    MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("("));
    std::vector<VarValue> vars;
    for (size_t i = 0; i < table->schema().arity(); ++i) {
      MPFDB_ASSIGN_OR_RETURN(int64_t value, cursor.ExpectInteger());
      MPFDB_ASSIGN_OR_RETURN(int64_t domain,
                             db.catalog().DomainSize(
                                 table->schema().variables()[i]));
      if (value < 0 || value >= domain) {
        return Status::OutOfRange(
            "value " + std::to_string(value) + " outside domain of '" +
            table->schema().variables()[i] + "'");
      }
      vars.push_back(static_cast<VarValue>(value));
      MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(","));
    }
    MPFDB_ASSIGN_OR_RETURN(double measure, cursor.ExpectNumber());
    MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(")"));
    table->AppendRow(vars, measure);
    ++inserted;
  } while (cursor.TrySymbol(","));
  return SqlResult{"inserted " + std::to_string(inserted) + " rows into " +
                       name,
                   nullptr};
}

StatusOr<SqlResult> CreateMpfView(TokenCursor& cursor, Database& db) {
  MPFDB_ASSIGN_OR_RETURN(std::string name, cursor.ExpectIdentifier());
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("as"));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("select"));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("*"));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("from"));
  MpfViewDef view;
  view.name = name;
  do {
    MPFDB_ASSIGN_OR_RETURN(std::string rel, cursor.ExpectIdentifier());
    view.relations.push_back(std::move(rel));
  } while (cursor.TrySymbol(","));
  if (cursor.TryKeyword("using")) {
    MPFDB_ASSIGN_OR_RETURN(std::string semiring_name, cursor.ExpectIdentifier());
    MPFDB_ASSIGN_OR_RETURN(view.semiring, Semiring::FromName(semiring_name));
  }
  MPFDB_RETURN_IF_ERROR(db.CreateMpfView(std::move(view)));
  return SqlResult{"created mpfview " + name, nullptr};
}

// EXPLAIN renders the optimizer's logical plan followed by the physical
// plan (each node's algorithm and fused index scans); EXPLAIN ANALYZE runs
// the query and renders the physical plan with per-operator runtime stats
// and cardinality q-errors.
enum class SelectMode { kRun, kExplain, kExplainAnalyze };

// Parses "SELECT vars, AGG(f) FROM [CACHE] view [WHERE ...] GROUP BY vars
// [HAVING ...] [USING OPTIMIZER spec]" after the SELECT keyword was consumed.
StatusOr<SqlResult> SelectQuery(TokenCursor& cursor, Database& db,
                                SelectMode mode) {
  // Select list: identifiers until we hit AGG(...) — i.e., an identifier
  // followed by '('.
  std::vector<std::string> select_vars;
  std::string aggregate;
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(std::string item, cursor.ExpectIdentifier());
    if (cursor.TrySymbol("(")) {
      aggregate = ToLower(item);
      MPFDB_ASSIGN_OR_RETURN(std::string measure, cursor.ExpectIdentifier());
      (void)measure;  // any measure alias is accepted
      MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(")"));
      break;
    }
    select_vars.push_back(std::move(item));
    MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(","));
  }
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("from"));
  bool from_cache = cursor.TryKeyword("cache");
  MPFDB_ASSIGN_OR_RETURN(std::string view_name, cursor.ExpectIdentifier());

  MpfQuerySpec query;
  if (cursor.TryKeyword("where")) {
    do {
      MPFDB_ASSIGN_OR_RETURN(std::string var, cursor.ExpectIdentifier());
      MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("="));
      MPFDB_ASSIGN_OR_RETURN(int64_t value, cursor.ExpectInteger());
      query.selections.push_back(
          QuerySelection{std::move(var), static_cast<VarValue>(value)});
    } while (cursor.TryKeyword("and"));
  }
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("group"));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("by"));
  do {
    MPFDB_ASSIGN_OR_RETURN(std::string var, cursor.ExpectIdentifier());
    query.group_vars.push_back(std::move(var));
  } while (cursor.TrySymbol(","));

  // HAVING <measure-alias> <op> <number> — the constrained-range form.
  if (cursor.TryKeyword("having")) {
    MPFDB_ASSIGN_OR_RETURN(std::string measure_alias,
                           cursor.ExpectIdentifier());
    (void)measure_alias;
    HavingClause having;
    if (cursor.TrySymbol("<")) {
      having.op = cursor.TrySymbol("=") ? CompareOp::kLe
                  : cursor.TrySymbol(">") ? CompareOp::kNe
                                          : CompareOp::kLt;
    } else if (cursor.TrySymbol(">")) {
      having.op = cursor.TrySymbol("=") ? CompareOp::kGe : CompareOp::kGt;
    } else if (cursor.TrySymbol("=")) {
      having.op = CompareOp::kEq;
    } else {
      return Status::InvalidArgument("expected a comparison after HAVING");
    }
    MPFDB_ASSIGN_OR_RETURN(having.threshold, cursor.ExpectNumber());
    query.having = having;
  }

  // ORDER BY <measure-alias> [ASC|DESC] [LIMIT k] — top-k decision support.
  bool order_by_measure = false;
  bool descending = true;
  int64_t limit = -1;
  if (cursor.TryKeyword("order")) {
    MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("by"));
    MPFDB_ASSIGN_OR_RETURN(std::string alias, cursor.ExpectIdentifier());
    (void)alias;
    order_by_measure = true;
    if (cursor.TryKeyword("asc")) {
      descending = false;
    } else {
      (void)cursor.TryKeyword("desc");
    }
  }
  if (cursor.TryKeyword("limit")) {
    MPFDB_ASSIGN_OR_RETURN(limit, cursor.ExpectInteger());
    if (limit < 0) return Status::InvalidArgument("LIMIT must be >= 0");
  }

  std::string optimizer_spec = "cs+nonlinear";
  if (cursor.TryKeyword("using")) {
    MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("optimizer"));
    // The spec may span several tokens: ve ( deg ) ext.
    std::string spec;
    while (!cursor.AtEnd()) {
      spec += cursor.Next().text;
    }
    optimizer_spec = spec;
  }

  // The select list must name the same variables as GROUP BY.
  if (!varset::SetEquals(select_vars, query.group_vars)) {
    return Status::InvalidArgument(
        "select list must contain exactly the GROUP BY variables");
  }
  // The aggregate must match the view's semiring.
  MPFDB_ASSIGN_OR_RETURN(const MpfViewDef* view, db.GetView(view_name));
  if (aggregate != ToLower(view->semiring.aggregate_name())) {
    return Status::InvalidArgument(
        "aggregate '" + aggregate + "' does not match the view's semiring (" +
        view->semiring.name() + " expects " + view->semiring.aggregate_name() +
        ")");
  }

  if (mode == SelectMode::kExplain) {
    MPFDB_ASSIGN_OR_RETURN(std::string text,
                           db.Explain(view_name, query, optimizer_spec));
    return SqlResult{std::move(text), nullptr};
  }
  if (mode == SelectMode::kExplainAnalyze) {
    MPFDB_ASSIGN_OR_RETURN(std::string text,
                           db.ExplainAnalyze(view_name, query, optimizer_spec));
    return SqlResult{std::move(text), nullptr};
  }
  TablePtr table;
  std::string message = "ok";
  if (from_cache) {
    MPFDB_ASSIGN_OR_RETURN(table, db.QueryCached(view_name, query));
    message = "answered from VE-cache";
  } else {
    MPFDB_ASSIGN_OR_RETURN(QueryResult result,
                           db.Query(view_name, query, optimizer_spec));
    table = result.table;
  }
  if (order_by_measure || limit >= 0) {
    // Post-process: order rows by measure and truncate. This is
    // presentation, not plan work — the MPF result is already computed.
    std::vector<size_t> order(table->NumRows());
    std::iota(order.begin(), order.end(), 0);
    if (order_by_measure) {
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         return descending
                                    ? table->measure(a) > table->measure(b)
                                    : table->measure(a) < table->measure(b);
                       });
    }
    size_t keep = limit >= 0
                      ? std::min<size_t>(static_cast<size_t>(limit),
                                         order.size())
                      : order.size();
    auto sorted = std::make_shared<Table>(table->name(), table->schema());
    sorted->Reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      RowView row = table->Row(order[i]);
      sorted->AppendRowRaw(row.vars, row.measure);
    }
    table = std::move(sorted);
  }
  return SqlResult{std::move(message), std::move(table)};
}

StatusOr<SqlResult> SelectQueryForSubquery(TokenCursor& cursor, Database& db) {
  return SelectQuery(cursor, db, SelectMode::kRun);
}

StatusOr<SqlResult> BuildCache(TokenCursor& cursor, Database& db) {
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("cache"));
  MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("on"));
  MPFDB_ASSIGN_OR_RETURN(std::string view_name, cursor.ExpectIdentifier());
  MPFDB_RETURN_IF_ERROR(db.BuildCache(view_name));
  return SqlResult{"built VE-cache on " + view_name, nullptr};
}

}  // namespace

StatusOr<SqlResult> SqlSession::Execute(const std::string& statement) {
  MPFDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(statement));
  TokenCursor cursor(std::move(tokens));
  StatusOr<SqlResult> result = Status::Internal("unhandled statement");
  if (cursor.TryKeyword("create")) {
    if (cursor.TryKeyword("variable")) {
      result = CreateVariable(cursor, db_);
    } else if (cursor.TryKeyword("table")) {
      result = CreateTable(cursor, db_);
    } else if (cursor.TryKeyword("mpfview")) {
      result = CreateMpfView(cursor, db_);
    } else if (cursor.TryKeyword("index")) {
      // CREATE INDEX ON <table> (<var>)
      MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("on"));
      auto table = cursor.ExpectIdentifier();
      if (!table.ok()) return table.status();
      MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol("("));
      auto var = cursor.ExpectIdentifier();
      if (!var.ok()) return var.status();
      MPFDB_RETURN_IF_ERROR(cursor.ExpectSymbol(")"));
      MPFDB_RETURN_IF_ERROR(db_.catalog().CreateIndex(*table, *var));
      result = SqlResult{"created index on " + *table + "(" + *var + ")",
                         nullptr};
    } else {
      return Status::InvalidArgument(
          "expected VARIABLE, TABLE, MPFVIEW or INDEX after CREATE");
    }
  } else if (cursor.TryKeyword("insert")) {
    result = InsertInto(cursor, db_);
  } else if (cursor.TryKeyword("select")) {
    result = SelectQuery(cursor, db_, SelectMode::kRun);
  } else if (cursor.TryKeyword("explain")) {
    SelectMode mode = cursor.TryKeyword("analyze") ? SelectMode::kExplainAnalyze
                                                   : SelectMode::kExplain;
    MPFDB_RETURN_IF_ERROR(cursor.ExpectKeyword("select"));
    result = SelectQuery(cursor, db_, mode);
  } else if (cursor.TryKeyword("build")) {
    result = BuildCache(cursor, db_);
  } else if (cursor.TryKeyword("drop")) {
    if (cursor.TryKeyword("table")) {
      auto name = cursor.ExpectIdentifier();
      if (!name.ok()) return name.status();
      MPFDB_RETURN_IF_ERROR(db_.DropTable(*name));
      result = SqlResult{"dropped table " + *name, nullptr};
    } else if (cursor.TryKeyword("mpfview")) {
      auto name = cursor.ExpectIdentifier();
      if (!name.ok()) return name.status();
      MPFDB_RETURN_IF_ERROR(db_.DropMpfView(*name));
      result = SqlResult{"dropped mpfview " + *name, nullptr};
    } else {
      return Status::InvalidArgument("expected TABLE or MPFVIEW after DROP");
    }
  } else if (cursor.TryKeyword("show")) {
    if (cursor.TryKeyword("tables")) {
      std::string listing;
      for (const auto& name : db_.catalog().TableNames()) {
        TablePtr table = *db_.catalog().GetTable(name);
        listing += name + " " + table->schema().ToString() + " [" +
                   std::to_string(table->NumRows()) + " rows]\n";
      }
      result = SqlResult{std::move(listing), nullptr};
    } else if (cursor.TryKeyword("views")) {
      std::string listing;
      for (const auto& name : db_.ViewNames()) {
        const MpfViewDef* view = *db_.GetView(name);
        listing += name + " (" + view->semiring.name() + ") over " +
                   Join(view->relations, ", ") + "\n";
      }
      result = SqlResult{std::move(listing), nullptr};
    } else {
      return Status::InvalidArgument("expected TABLES or VIEWS after SHOW");
    }
  } else {
    return Status::InvalidArgument("unrecognized statement: " + statement);
  }
  if (!result.ok()) return result;
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after statement: '" +
                                   cursor.Peek().text + "'");
  }
  return result;
}

}  // namespace mpfdb::parser
