#ifndef MPFDB_COST_COST_MODEL_H_
#define MPFDB_COST_COST_MODEL_H_

#include <vector>

namespace mpfdb {

// The cost model every optimizer consumes: the paper's analytical model
// (Section 5.1). Joining R and S costs |R||S| and computing an aggregate on
// R costs |R| log |R|. Scans and selections are charged linearly so plans
// with useless nodes are never free. Costs are in abstract units; only
// relative comparisons matter, exactly as in the paper's experiments, where
// plan cost (not wall time) is reported for Tables 2-3.
//
// The per-tuple CPU constants are unit weights, not fitted to measured
// operator throughput (bench/ablate_exec_operators records that): the
// optimizers only consume relative plan comparisons, which a uniform
// rescaling of the constants does not change.
class CostModel {
 public:
  // Cost of scanning a base relation of `card` rows.
  double ScanCost(double card) const;
  // Cost of joining operands of `left_card` and `right_card` rows.
  double JoinCost(double left_card, double right_card) const;
  // Cost of grouping/aggregating an input of `input_card` rows.
  double GroupByCost(double input_card) const;
  // Cost of an equality selection over `input_card` rows.
  double SelectCost(double input_card) const;
  // Cost of an index lookup producing `output_card` rows (vs scanning and
  // filtering the whole relation).
  double IndexScanCost(double output_card) const;

  // Cost of a worst-case-optimal multiway join (LeapFrog TrieJoin) over
  // `input_cards` staged inputs producing `output_card` rows: every input is
  // materialized and sorted into a trie arena, then the leapfrog intersection
  // walks at most the output plus logarithmic seek overhead per input. This
  // charges an n log n sort per input plus a linear output pass, which
  // prices LFTJ above a binary hash join whenever the pairwise intermediates
  // are no bigger than the output — so the FAQ planner only picks it where
  // pairwise plans genuinely blow up.
  double MultiwayJoinCost(const std::vector<double>& input_cards,
                          double output_card) const;
};

}  // namespace mpfdb

#endif  // MPFDB_COST_COST_MODEL_H_
