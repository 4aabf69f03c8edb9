#include "bn/inference.h"

#include "core/database.h"
#include "fr/algebra.h"

namespace mpfdb::bn {
namespace {

// Builds a scratch database holding the BN's joint view under `semiring`.
// Fills a caller-owned database (Database is not movable: it carries the
// serving layer's locks).
Status MakeScratch(const BayesNet& bn, Semiring semiring, Database& db,
                   MpfViewDef* view_out) {
  MPFDB_ASSIGN_OR_RETURN(MpfViewDef view, bn.ToMpfView(db.catalog()));
  view.semiring = semiring;
  *view_out = view;
  return db.CreateMpfView(std::move(view));
}

std::vector<QuerySelection> ToSelections(
    const std::vector<BayesNet::Evidence>& evidence) {
  std::vector<QuerySelection> selections;
  for (const auto& e : evidence) {
    selections.push_back(QuerySelection{e.var, e.value});
  }
  return selections;
}

}  // namespace

StatusOr<TablePtr> InferMarginal(
    const BayesNet& bn, const std::string& query_var,
    const std::vector<BayesNet::Evidence>& evidence,
    const std::string& optimizer) {
  MpfViewDef view;
  Database db;
  MPFDB_RETURN_IF_ERROR(MakeScratch(bn, Semiring::SumProduct(), db, &view));
  MpfQuerySpec query{{query_var}, ToSelections(evidence)};
  MPFDB_ASSIGN_OR_RETURN(QueryResult result,
                         db.Query(view.name, query, optimizer));
  MPFDB_RETURN_IF_ERROR(
      fr::NormalizeMeasure(*result.table, Semiring::SumProduct()));
  return result.table;
}

StatusOr<double> MpeValue(const BayesNet& bn,
                          const std::vector<BayesNet::Evidence>& evidence,
                          const std::string& optimizer) {
  MpfViewDef view;
  Database db;
  MPFDB_RETURN_IF_ERROR(MakeScratch(bn, Semiring::MaxProduct(), db, &view));
  MpfQuerySpec query{{}, ToSelections(evidence)};
  MPFDB_ASSIGN_OR_RETURN(QueryResult result,
                         db.Query(view.name, query, optimizer));
  if (result.table->NumRows() != 1) {
    return Status::Internal("MPE query did not produce a scalar");
  }
  return result.table->measure(0);
}

StatusOr<BayesNet> EstimateCptsFromView(const BayesNet& structure,
                                        Database& db,
                                        const std::string& view_name,
                                        double alpha,
                                        const std::string& optimizer) {
  BayesNet estimated;
  for (const BnNode& node : structure.nodes()) {
    std::vector<std::string> family = node.parents;
    family.push_back(node.name);
    // N(parents, node) as an MPF count query over the multi-table view.
    MPFDB_ASSIGN_OR_RETURN(QueryResult counts,
                           db.Query(view_name, MpfQuerySpec{family, {}},
                                    optimizer));
    MPFDB_ASSIGN_OR_RETURN(
        TablePtr cpt, BuildSmoothedCpt(structure, node, *counts.table, alpha));
    MPFDB_RETURN_IF_ERROR(estimated.AddNode(node.name, node.domain_size,
                                            node.parents, std::move(cpt)));
  }
  return estimated;
}

StatusOr<std::map<std::string, VarValue>> MpeAssignment(
    const BayesNet& bn, const std::vector<BayesNet::Evidence>& evidence,
    const std::string& optimizer) {
  MpfViewDef view;
  Database db;
  MPFDB_RETURN_IF_ERROR(MakeScratch(bn, Semiring::MaxProduct(), db, &view));
  std::map<std::string, VarValue> assignment;
  std::vector<QuerySelection> fixed = ToSelections(evidence);
  for (const auto& e : evidence) assignment[e.var] = e.value;

  for (const BnNode& node : bn.nodes()) {
    if (assignment.count(node.name)) continue;
    MpfQuerySpec query{{node.name}, fixed};
    MPFDB_ASSIGN_OR_RETURN(QueryResult result,
                           db.Query(view.name, query, optimizer));
    if (result.table->Empty()) {
      return Status::FailedPrecondition(
          "evidence has zero probability; no MPE assignment exists");
    }
    // Argmax of the max-marginal.
    size_t best = 0;
    for (size_t i = 1; i < result.table->NumRows(); ++i) {
      if (result.table->measure(i) > result.table->measure(best)) best = i;
    }
    VarValue value = result.table->Row(best).var(0);
    assignment[node.name] = value;
    fixed.push_back(QuerySelection{node.name, value});
  }
  return assignment;
}

}  // namespace mpfdb::bn
