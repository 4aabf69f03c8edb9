#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "exec/trie_join.h"
#include "util/strings.h"

namespace mpfdb::exec {
namespace {

// Transparent decorator measuring the rows/batches its child emits and the
// wall time spent inside the child's Open/NextBatch (inclusive of the
// child's whole subtree). The wrapped operator additionally routes its
// MemoryGuard peaks and spill partition counts into the same record via
// set_stats. Deliberately does not forward SupportsMorselStreams: analyzed
// runs stay serial at decorated boundaries so the single-threaded stats
// spine needs no synchronization (results are bit-identical either way).
class StatsOperator : public PhysicalOperator {
 public:
  StatsOperator(OperatorPtr child, OperatorStats* record)
      : child_(std::move(child)), record_(record) {
    child_->set_stats(record_);
  }

  Status Open() override {
    Timer t(record_);
    return child_->Open();
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    Timer t(record_);
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (has) {
      record_->output_rows += batch->num_rows();
      ++record_->batches;
    }
    return has;
  }
  void Close() override { child_->Close(); }
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return child_->name(); }

 private:
  // Accumulates elapsed wall time into the record on scope exit.
  class Timer {
   public:
    explicit Timer(OperatorStats* record)
        : record_(record), start_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      record_->wall_nanos += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }

   private:
    OperatorStats* record_;
    std::chrono::steady_clock::time_point start_;
  };

  OperatorPtr child_;
  OperatorStats* record_;
};

}  // namespace

StatusOr<std::unique_ptr<PhysicalPlanNode>> Executor::PlanPhysical(
    const PlanNode& plan, QueryContext* /*ctx*/) const {
  return PlanPhysicalTree(plan, catalog_);
}

StatusOr<OperatorPtr> Executor::BuildNode(
    const PhysicalPlanNode& phys,
    std::map<const PlanNode*, OperatorStats>* stats) const {
  const PlanNode& plan = *phys.logical;
  OperatorPtr op;
  switch (phys.kind) {
    case PlanNodeKind::kScan: {
      MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(plan.table_name));
      op = std::make_unique<SeqScan>(std::move(table));
      break;
    }
    case PlanNodeKind::kIndexScan: {
      // Either a logical index scan or a Select(Scan) pair the physical
      // planner fused; in the fused case the table lives on the absorbed
      // scan child while the selection fields are on the Select node.
      const std::string& table_name =
          phys.index_fused ? plan.left->table_name : plan.table_name;
      MPFDB_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(table_name));
      const HashIndex* index = catalog_.GetIndex(table_name, plan.select_var);
      if (index == nullptr) {
        return Status::FailedPrecondition("plan uses missing index on " +
                                          table_name + "(" + plan.select_var +
                                          ")");
      }
      op = std::make_unique<IndexScan>(std::move(table), index,
                                       plan.select_value);
      break;
    }
    case PlanNodeKind::kSelect: {
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr child, BuildNode(*phys.left, stats));
      op = std::make_unique<Filter>(std::move(child), plan.select_var,
                                    plan.select_value);
      break;
    }
    case PlanNodeKind::kMeasureFilter: {
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr child, BuildNode(*phys.left, stats));
      op = std::make_unique<MeasureFilter>(std::move(child), plan.having);
      break;
    }
    case PlanNodeKind::kProject: {
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr child, BuildNode(*phys.left, stats));
      op = std::make_unique<StreamProject>(std::move(child), plan.output_vars);
      break;
    }
    case PlanNodeKind::kGroupBy: {
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr child, BuildNode(*phys.left, stats));
      op = std::make_unique<HashMarginalize>(std::move(child), plan.output_vars,
                                             semiring_, &catalog_);
      break;
    }
    case PlanNodeKind::kJoin: {
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr left, BuildNode(*phys.left, stats));
      MPFDB_ASSIGN_OR_RETURN(OperatorPtr right, BuildNode(*phys.right, stats));
      op = std::make_unique<HashProductJoin>(std::move(left), std::move(right),
                                             semiring_, &catalog_);
      break;
    }
    case PlanNodeKind::kMultiwayJoin: {
      std::vector<OperatorPtr> inputs;
      inputs.reserve(phys.children.size());
      for (const auto& child : phys.children) {
        MPFDB_ASSIGN_OR_RETURN(OperatorPtr input, BuildNode(*child, stats));
        inputs.push_back(std::move(input));
      }
      // output_vars doubles as the global variable order on multiway nodes.
      op = std::make_unique<TrieJoin>(std::move(inputs), plan.output_vars,
                                      semiring_);
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan node kind");
  if (stats != nullptr) {
    // std::map gives stable addresses, so the record can be handed to the
    // operator and the decorator while the map keeps growing.
    OperatorStats& record = (*stats)[phys.logical];
    op = std::make_unique<StatsOperator>(std::move(op), &record);
  }
  return op;
}

StatusOr<TablePtr> Executor::Execute(const PlanNode& plan,
                                     const std::string& result_name,
                                     QueryContext* ctx) const {
  MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalPlanNode> phys,
                         PlanPhysical(plan, ctx));
  return ExecutePhysical(*phys, result_name, ctx);
}

StatusOr<TablePtr> Executor::ExecutePhysical(
    const PhysicalPlanNode& plan, const std::string& result_name,
    QueryContext* ctx, std::map<const PlanNode*, OperatorStats>* stats) const {
  MPFDB_ASSIGN_OR_RETURN(OperatorPtr root, BuildNode(plan, stats));
  // Without a caller context, bind a local ungoverned one so the operators'
  // MemoryGuard charges flow (stats record peak_bytes). It imposes no budget,
  // deadline or pool, so execution semantics are unchanged.
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  root->BindContext(ctx);
  MPFDB_ASSIGN_OR_RETURN(TablePtr result, Run(*root, result_name, ctx));
  std::vector<size_t> all(result->schema().arity());
  std::iota(all.begin(), all.end(), 0);
  result->SortByVariables(all);
  return result;
}

StatusOr<Executor::AnalyzedResult> Executor::ExecuteAnalyze(
    const PlanNode& plan, const std::string& result_name,
    QueryContext* ctx) const {
  AnalyzedResult analyzed;
  MPFDB_ASSIGN_OR_RETURN(analyzed.physical, PlanPhysical(plan, ctx));
  MPFDB_ASSIGN_OR_RETURN(analyzed.table,
                         ExecutePhysical(*analyzed.physical, result_name, ctx,
                                         &analyzed.stats));
  return analyzed;
}

namespace {

void ExplainAnalyzeRec(const PhysicalPlanNode& phys,
                       const std::map<const PlanNode*, OperatorStats>& stats,
                       int depth, std::ostringstream& os) {
  const PlanNode& node = *phys.logical;
  os << std::string(static_cast<size_t>(depth) * 2, ' ');
  switch (phys.kind) {
    case PlanNodeKind::kScan:
      os << "Scan(" << node.table_name << ")";
      break;
    case PlanNodeKind::kIndexScan: {
      const std::string& table =
          phys.index_fused ? node.left->table_name : node.table_name;
      os << "IndexScan(" << table << ", " << node.select_var << "="
         << node.select_value << ")";
      break;
    }
    case PlanNodeKind::kSelect:
      os << "Select(" << node.select_var << "=" << node.select_value << ")";
      break;
    case PlanNodeKind::kJoin:
      os << "ProductJoin(" << AlgorithmName(phys.kind) << ")";
      break;
    case PlanNodeKind::kMultiwayJoin:
      os << "MultiwayJoin[" << phys.children.size() << "]("
         << AlgorithmName(phys.kind) << ")";
      break;
    case PlanNodeKind::kGroupBy:
      os << "GroupBy{" << FormatVarList(node.output_vars) << "}("
         << AlgorithmName(phys.kind) << ")";
      break;
    case PlanNodeKind::kProject:
      os << "Project{" << FormatVarList(node.output_vars) << "}";
      break;
    case PlanNodeKind::kMeasureFilter:
      os << "MeasureFilter(f " << CompareOpSymbol(node.having.op) << " "
         << FormatThreshold(node.having.threshold) << ")";
      break;
  }
  os << "  [est=" << node.est_card;
  auto it = stats.find(phys.logical);
  if (it != stats.end()) {
    const OperatorStats& s = it->second;
    os << " actual=" << s.output_rows;
    if (node.est_card > 0.0 && s.output_rows > 0) {
      double actual = static_cast<double>(s.output_rows);
      double q = std::max(node.est_card / actual, actual / node.est_card);
      os << " q=" << std::fixed << std::setprecision(2) << q
         << std::defaultfloat;
    }
    os << "] [batches=" << s.batches << " peak_bytes=" << s.peak_bytes
       << " spill_parts=" << s.spill_partitions
       << " wall_us=" << s.wall_nanos / 1000 << "]\n";
    if (!s.trie_vars.empty()) {
      // Per-variable trie-iterator counters, names left-aligned to the
      // widest variable so multi-character names line up in columns.
      size_t width = 0;
      for (const auto& tv : s.trie_vars) {
        width = std::max(width, tv.var.size());
      }
      for (const auto& tv : s.trie_vars) {
        os << std::string(static_cast<size_t>(depth) * 2 + 2, ' ') << "~ "
           << tv.var << std::string(width - tv.var.size(), ' ')
           << "  seeks=" << tv.seeks << " nexts=" << tv.nexts << "\n";
      }
    }
  } else {
    os << "]\n";
  }
  if (phys.left != nullptr) ExplainAnalyzeRec(*phys.left, stats, depth + 1, os);
  if (phys.right != nullptr) {
    ExplainAnalyzeRec(*phys.right, stats, depth + 1, os);
  }
  for (const auto& child : phys.children) {
    ExplainAnalyzeRec(*child, stats, depth + 1, os);
  }
}

}  // namespace

std::string ExplainAnalyzePlan(
    const PhysicalPlanNode& root,
    const std::map<const PlanNode*, OperatorStats>& stats) {
  std::ostringstream os;
  ExplainAnalyzeRec(root, stats, 0, os);
  return os.str();
}

}  // namespace mpfdb::exec
