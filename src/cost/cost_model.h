#ifndef MPFDB_COST_COST_MODEL_H_
#define MPFDB_COST_COST_MODEL_H_

#include <memory>
#include <string>
#include <vector>

namespace mpfdb {

// Abstract cost model consumed by every optimizer. Costs are in abstract
// units; only relative comparisons matter, exactly as in the paper's
// experiments, where plan cost (not wall time) is reported for Tables 2-3.
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual std::string name() const = 0;

  // Cost of scanning a base relation of `card` rows.
  virtual double ScanCost(double card) const = 0;
  // Cost of joining operands of `left_card` and `right_card` rows.
  virtual double JoinCost(double left_card, double right_card) const = 0;
  // Cost of grouping/aggregating an input of `input_card` rows.
  virtual double GroupByCost(double input_card) const = 0;
  // Cost of an equality selection over `input_card` rows.
  virtual double SelectCost(double input_card) const = 0;
  // Cost of an index lookup producing `output_card` rows (vs scanning and
  // filtering the whole relation).
  virtual double IndexScanCost(double output_card) const = 0;

  // --- Per-algorithm costs for the physical planner ------------------------
  //
  // The logical optimizers only consume JoinCost/GroupByCost (algorithm
  // agnostic, as in the paper). The physical pass additionally asks for the
  // cost of each concrete algorithm so it can pick per node. Defaults keep
  // derived models working: hash costs fall back to the generic methods,
  // sort-based costs add an n log n term unless the input is presorted, and
  // nested loop is quadratic.
  virtual double HashJoinCost(double left_card, double right_card) const {
    return JoinCost(left_card, right_card);
  }
  // `left_sorted` / `right_sorted` report whether that input already arrives
  // sorted by the shared variables (interesting-order reuse): a presorted
  // side skips its sort entirely.
  virtual double SortMergeJoinCost(double left_card, double right_card,
                                   bool left_sorted, bool right_sorted) const;
  virtual double NestedLoopJoinCost(double left_card, double right_card) const;
  virtual double HashGroupByCost(double input_card, double output_card) const {
    (void)output_card;
    return GroupByCost(input_card);
  }
  // `input_sorted`: the input already arrives sorted by the group variables,
  // so sort-marginalize degenerates to a single streaming fold pass.
  virtual double SortGroupByCost(double input_card, bool input_sorted) const;
  // Cost of a worst-case-optimal multiway join (LeapFrog TrieJoin) over
  // `input_cards` staged inputs producing `output_card` rows: every input is
  // materialized and sorted into a trie arena, then the leapfrog intersection
  // walks at most the output plus logarithmic seek overhead per input. The
  // default charges the sorts like sort-merge sides plus a linear output
  // pass, which prices LFTJ above a binary hash join whenever the pairwise
  // intermediates are no bigger than the output — so the planner only picks
  // it where pairwise plans genuinely blow up.
  virtual double MultiwayJoinCost(const std::vector<double>& input_cards,
                                  double output_card) const;
};

// The paper's analytical model (Section 5.1): joining R and S costs |R||S|
// and computing an aggregate on R costs |R| log |R|. Scans and selections
// are charged linearly so plans with useless nodes are never free.
//
// The per-tuple CPU constants are unit weights, not fitted to measured
// operator throughput (bench/ablate_exec_operators records that): the
// optimizers only consume relative plan comparisons, which a uniform
// rescaling of the constants does not change.
class SimpleCostModel : public CostModel {
 public:
  std::string name() const override { return "simple"; }
  double ScanCost(double card) const override;
  double JoinCost(double left_card, double right_card) const override;
  double GroupByCost(double input_card) const override;
  double SelectCost(double input_card) const override;
  double IndexScanCost(double output_card) const override;
};

// Page-IO cost model in the Selinger tradition: operands are charged in
// pages of `rows_per_page` rows. Hash join reads both inputs and writes the
// build side once; aggregation is a sort in pages. Used by the ablation
// benches to show plan choices are stable across cost models, and by the
// physical planner (which also passes the query memory budget expressed in
// pages, so hash operators whose build footprint exceeds memory are charged
// a Grace-style partition-spill pass).
class PageCostModel : public CostModel {
 public:
  // `memory_pages` is the working memory the physical planner may assume;
  // the default is effectively unbounded (no spill penalties).
  explicit PageCostModel(double rows_per_page = 100.0,
                         double memory_pages = 1e18)
      : rows_per_page_(rows_per_page), memory_pages_(memory_pages) {}

  std::string name() const override { return "page"; }
  double ScanCost(double card) const override;
  double JoinCost(double left_card, double right_card) const override;
  double GroupByCost(double input_card) const override;
  double SelectCost(double input_card) const override;
  double IndexScanCost(double output_card) const override;

  double HashJoinCost(double left_card, double right_card) const override;
  double SortMergeJoinCost(double left_card, double right_card,
                           bool left_sorted, bool right_sorted) const override;
  double NestedLoopJoinCost(double left_card,
                            double right_card) const override;
  double HashGroupByCost(double input_card,
                         double output_card) const override;
  double SortGroupByCost(double input_card, bool input_sorted) const override;
  double MultiwayJoinCost(const std::vector<double>& input_cards,
                          double output_card) const override;

 private:
  double Pages(double card) const;
  // Extra IO charged when a hash table of `pages` pages exceeds memory:
  // one write + one read of the overflow partitions (Grace hash).
  double GracePenalty(double pages) const;

  double rows_per_page_;
  double memory_pages_;
};

}  // namespace mpfdb

#endif  // MPFDB_COST_COST_MODEL_H_
