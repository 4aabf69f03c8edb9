#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace mpfdb {

namespace {
double Log2Safe(double x) { return x <= 2.0 ? 1.0 : std::log2(x); }
}  // namespace

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

double CostModel::ScanCost(double card) const { return card; }

double CostModel::JoinCost(double left_card, double right_card) const {
  return left_card * right_card;
}

double CostModel::GroupByCost(double input_card) const {
  return input_card * Log2Safe(input_card);
}

double CostModel::SelectCost(double input_card) const {
  return input_card;
}

double CostModel::IndexScanCost(double output_card) const {
  return 1.0 + output_card;
}

}  // namespace mpfdb
