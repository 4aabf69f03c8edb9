#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace mpfdb {

namespace {
double Log2Safe(double x) { return x <= 2.0 ? 1.0 : std::log2(x); }
}  // namespace

double CostModel::SortMergeJoinCost(double left_card, double right_card,
                                    bool left_sorted,
                                    bool right_sorted) const {
  double cost = left_card + right_card;
  if (!left_sorted) cost += left_card * Log2Safe(left_card);
  if (!right_sorted) cost += right_card * Log2Safe(right_card);
  return cost;
}

double CostModel::NestedLoopJoinCost(double left_card,
                                     double right_card) const {
  return left_card * right_card;
}

double CostModel::SortGroupByCost(double input_card, bool input_sorted) const {
  if (input_sorted) return input_card;
  return input_card * Log2Safe(input_card) + input_card;
}

double CostModel::MultiwayJoinCost(const std::vector<double>& input_cards,
                                   double output_card) const {
  // Stage + sort every input, then the leapfrog walk touches each emitted
  // row with one log-sized gallop per input.
  double cost = 0.0;
  for (double card : input_cards) {
    cost += card + card * Log2Safe(card);
  }
  double seek = 0.0;
  for (double card : input_cards) seek += Log2Safe(card);
  return cost + output_card * std::max(1.0, seek);
}

double SimpleCostModel::ScanCost(double card) const { return card; }

double SimpleCostModel::JoinCost(double left_card, double right_card) const {
  return left_card * right_card;
}

double SimpleCostModel::GroupByCost(double input_card) const {
  return input_card * Log2Safe(input_card);
}

double SimpleCostModel::SelectCost(double input_card) const {
  return input_card;
}

double SimpleCostModel::IndexScanCost(double output_card) const {
  return 1.0 + output_card;
}

double PageCostModel::Pages(double card) const {
  return std::max(1.0, std::ceil(card / rows_per_page_));
}

double PageCostModel::ScanCost(double card) const { return Pages(card); }

double PageCostModel::JoinCost(double left_card, double right_card) const {
  // Hash join: read both inputs; the build side (smaller) is written and
  // re-read once when it spills, charged unconditionally to keep the model
  // monotone in operand size.
  double pl = Pages(left_card);
  double pr = Pages(right_card);
  return pl + pr + 2.0 * std::min(pl, pr);
}

double PageCostModel::GroupByCost(double input_card) const {
  double p = Pages(input_card);
  return p * Log2Safe(p) + p;
}

double PageCostModel::SelectCost(double input_card) const {
  return Pages(input_card);
}

double PageCostModel::IndexScanCost(double output_card) const {
  // One lookup page plus the matching rows' pages.
  return 1.0 + Pages(output_card);
}

double PageCostModel::GracePenalty(double pages) const {
  // Overflow partitions are written once and read back once.
  if (pages <= memory_pages_) return 0.0;
  return 2.0 * (pages - memory_pages_);
}

double PageCostModel::HashJoinCost(double left_card, double right_card) const {
  // Read both inputs; build the smaller side in memory. Overflow beyond the
  // memory budget pays a Grace partition round-trip.
  double pl = Pages(left_card);
  double pr = Pages(right_card);
  double build = std::min(pl, pr);
  return pl + pr + GracePenalty(build);
}

double PageCostModel::SortMergeJoinCost(double left_card, double right_card,
                                        bool left_sorted,
                                        bool right_sorted) const {
  // Each unsorted side pays an in-memory sort (p log p) plus an external
  // merge round-trip when it exceeds memory; a presorted side streams.
  double pl = Pages(left_card);
  double pr = Pages(right_card);
  double cost = pl + pr;
  if (!left_sorted) cost += pl * Log2Safe(pl) + GracePenalty(pl);
  if (!right_sorted) cost += pr * Log2Safe(pr) + GracePenalty(pr);
  return cost;
}

double PageCostModel::NestedLoopJoinCost(double left_card,
                                         double right_card) const {
  // Outer read plus one inner pass per outer page.
  double pl = Pages(left_card);
  double pr = Pages(right_card);
  return pl + pl * pr;
}

double PageCostModel::HashGroupByCost(double input_card,
                                      double output_card) const {
  // Hashing every input row costs roughly two page-units of CPU per input
  // page (hash + probe/fold, measured in the operator ablation bench as
  // ~2x a streaming fold pass) plus emitting the sorted groups. The CPU
  // factor is what lets a presorted streaming sort-marginalize win.
  double pin = Pages(input_card);
  double pout = Pages(output_card);
  return 2.0 * pin + pout + GracePenalty(pout);
}

double PageCostModel::SortGroupByCost(double input_card,
                                      bool input_sorted) const {
  double pin = Pages(input_card);
  if (input_sorted) return pin;  // single streaming fold pass
  return pin * Log2Safe(pin) + pin + GracePenalty(pin);
}

double PageCostModel::MultiwayJoinCost(const std::vector<double>& input_cards,
                                       double output_card) const {
  // Every input is staged into a sorted trie arena (read + in-memory sort,
  // with the same Grace penalty an oversized sort side pays), then the
  // leapfrog intersection emits the output with a per-row gallop whose CPU
  // cost is charged like the hash group-by's per-page factor.
  double cost = 0.0;
  double total_in = 0.0;
  for (double card : input_cards) {
    double p = Pages(card);
    cost += p + p * Log2Safe(p) + GracePenalty(p);
    total_in += p;
  }
  double pout = Pages(output_card);
  return cost + 2.0 * pout + GracePenalty(std::min(total_in, pout));
}

}  // namespace mpfdb
