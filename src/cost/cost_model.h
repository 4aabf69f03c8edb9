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

  // Cost of a worst-case-optimal multiway join (LeapFrog TrieJoin) over
  // `input_cards` staged inputs producing `output_card` rows: every input is
  // materialized and sorted into a trie arena, then the leapfrog intersection
  // walks at most the output plus logarithmic seek overhead per input. The
  // default charges an n log n sort per input plus a linear output pass,
  // which prices LFTJ above a binary hash join whenever the pairwise
  // intermediates are no bigger than the output — so the FAQ planner only
  // picks it where pairwise plans genuinely blow up.
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

}  // namespace mpfdb

#endif  // MPFDB_COST_COST_MODEL_H_
