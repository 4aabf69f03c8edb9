#include "storage/table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace mpfdb {

Status Table::SetKeyVars(std::vector<std::string> key_vars) {
  for (const auto& var : key_vars) {
    if (!schema_.HasVariable(var)) {
      return Status::InvalidArgument("key variable '" + var +
                                     "' not in schema of table " + name_);
    }
  }
  key_vars_ = std::move(key_vars);
  return Status::Ok();
}

std::vector<VarValue>& Table::MutableVars() {
  if (var_data_.use_count() != 1) {
    var_data_ = std::make_shared<std::vector<VarValue>>(*var_data_);
  }
  return *var_data_;
}

void Table::EnsureFlat() {
  if (!chunked_) return;
  measures_ = vmeasures_.ToFlat();
  vmeasures_ = mvcc::VersionedColumn();
  chunked_ = false;
}

void Table::SealChunked() {
  if (chunked_) return;
  vmeasures_ = mvcc::VersionedColumn::FromFlat(measures_.data(),
                                               measures_.size());
  measures_.clear();
  measures_.shrink_to_fit();
  chunked_ = true;
}

void Table::AppendRow(const std::vector<VarValue>& vars, double measure) {
  EnsureFlat();
  auto& vd = MutableVars();
  vd.insert(vd.end(), vars.begin(), vars.end());
  measures_.push_back(measure);
}

void Table::AppendRowRaw(const VarValue* vars, double measure) {
  EnsureFlat();
  auto& vd = MutableVars();
  vd.insert(vd.end(), vars, vars + schema_.arity());
  measures_.push_back(measure);
}

void Table::AppendRows(const VarValue* vars, const double* measures,
                       size_t n) {
  if (n == 0) return;
  EnsureFlat();
  auto& vd = MutableVars();
  vd.insert(vd.end(), vars, vars + n * schema_.arity());
  measures_.insert(measures_.end(), measures, measures + n);
}

void Table::Reserve(size_t n) {
  MutableVars().reserve(n * schema_.arity());
  if (!chunked_) measures_.reserve(n);
}

void Table::ReadRangeColumnar(size_t start, size_t n, size_t col_stride,
                              VarValue* cols_out,
                              double* measures_out) const {
  const size_t arity = schema_.arity();
  const VarValue* src = var_data_->data() + start * arity;
  for (size_t c = 0; c < arity; ++c) {
    VarValue* out = cols_out + c * col_stride;
    const VarValue* in = src + c;
    for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
  }
  if (chunked_) {
    vmeasures_.ReadRange(start, n, measures_out);
  } else {
    std::copy(measures_.begin() + static_cast<ptrdiff_t>(start),
              measures_.begin() + static_cast<ptrdiff_t>(start + n),
              measures_out);
  }
}

void Table::SortByVariables(const std::vector<size_t>& key_indices) {
  EnsureFlat();
  const size_t n = NumRows();
  const size_t arity = schema_.arity();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const VarValue* data = var_data_->data();
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const VarValue* ra = data + a * arity;
    const VarValue* rb = data + b * arity;
    for (size_t k : key_indices) {
      if (ra[k] != rb[k]) return ra[k] < rb[k];
    }
    return false;
  });
  std::vector<VarValue> new_vars(var_data_->size());
  std::vector<double> new_measures(n);
  for (size_t i = 0; i < n; ++i) {
    const VarValue* src = data + order[i] * arity;
    std::copy(src, src + arity, new_vars.begin() + i * arity);
    new_measures[i] = measures_[order[i]];
  }
  var_data_ = std::make_shared<std::vector<VarValue>>(std::move(new_vars));
  measures_ = std::move(new_measures);
}

std::unique_ptr<Table> Table::Clone(const std::string& new_name) const {
  auto copy = std::make_unique<Table>(new_name, schema_);
  copy->key_vars_ = key_vars_;
  copy->var_data_ = var_data_;
  copy->measures_ = measures_;
  copy->vmeasures_ = vmeasures_;
  copy->chunked_ = chunked_;
  return copy;
}

std::unique_ptr<Table> Table::CloneRenamed(
    const std::string& new_name, std::vector<std::string> new_vars) const {
  assert(new_vars.size() == schema_.arity());
  auto copy = std::make_unique<Table>(
      new_name, Schema(std::move(new_vars), schema_.measure_name()));
  copy->var_data_ = var_data_;
  copy->measures_ = measures_;
  copy->vmeasures_ = vmeasures_;
  copy->chunked_ = chunked_;
  return copy;
}

std::shared_ptr<Table> Table::WithMeasureUpdates(
    const std::vector<std::pair<size_t, double>>& updates,
    const std::string& new_name) const {
  auto next = std::make_shared<Table>(new_name, schema_);
  next->key_vars_ = key_vars_;
  next->var_data_ = var_data_;
  next->chunked_ = true;
  if (chunked_) {
    next->vmeasures_ = vmeasures_.WithUpdates(updates);
  } else {
    next->vmeasures_ =
        mvcc::VersionedColumn::FromFlat(measures_.data(), measures_.size())
            .WithUpdates(updates);
  }
  return next;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << name_ << " " << schema_.ToString() << " [" << NumRows() << " rows]\n";
  const size_t shown = std::min(max_rows, NumRows());
  for (size_t i = 0; i < shown; ++i) {
    RowView row = Row(i);
    os << "  (";
    for (size_t j = 0; j < row.arity; ++j) {
      if (j > 0) os << ", ";
      os << row.var(j);
    }
    os << "; " << row.measure << ")\n";
  }
  if (shown < NumRows()) {
    os << "  ... " << (NumRows() - shown) << " more rows\n";
  }
  return os.str();
}

}  // namespace mpfdb
