#include "exec/trie_join.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mpfdb::exec {

// --- TrieIterator -----------------------------------------------------------

TrieIterator::TrieIterator(const VarValue* rows, size_t num_rows, size_t arity)
    : rows_(rows), num_rows_(num_rows), arity_(arity), stats_(arity) {
  levels_.reserve(arity);
}

size_t TrieIterator::LowerBound(size_t col, size_t lo, size_t hi,
                                VarValue v) const {
  // Galloping start: LFTJ seeks are usually short hops, so probe
  // exponentially from `lo` before the binary search narrows in.
  size_t bound = 1;
  while (lo + bound < hi && At(lo + bound, col) < v) bound <<= 1;
  size_t lo2 = lo + (bound >> 1);
  size_t hi2 = std::min(hi, lo + bound + 1);
  while (lo2 < hi2) {
    size_t mid = lo2 + (hi2 - lo2) / 2;
    if (At(mid, col) < v) {
      lo2 = mid + 1;
    } else {
      hi2 = mid;
    }
  }
  return lo2;
}

size_t TrieIterator::RunEnd(size_t col, size_t pos, size_t hi) const {
  const VarValue v = At(pos, col);
  size_t bound = 1;
  while (pos + bound < hi && At(pos + bound, col) == v) bound <<= 1;
  size_t lo = pos + (bound >> 1);
  size_t hi2 = std::min(hi, pos + bound + 1);
  while (lo < hi2) {
    size_t mid = lo + (hi2 - lo) / 2;
    if (At(mid, col) == v) {
      lo = mid + 1;
    } else {
      hi2 = mid;
    }
  }
  return lo;
}

void TrieIterator::Open() {
  size_t begin, end;
  if (levels_.empty()) {
    begin = 0;
    end = num_rows_;
  } else {
    begin = levels_.back().pos;
    end = levels_.back().end;
  }
  Level level;
  level.range_begin = begin;
  level.range_end = end;
  level.pos = begin;
  const size_t col = levels_.size();
  level.end = begin < end ? RunEnd(col, begin, end) : end;
  levels_.push_back(level);
}

void TrieIterator::Up() { levels_.pop_back(); }

bool TrieIterator::AtEnd() const {
  const Level& level = levels_.back();
  return level.pos >= level.range_end;
}

VarValue TrieIterator::Key() const {
  return At(levels_.back().pos, levels_.size() - 1);
}

void TrieIterator::Next() {
  Level& level = levels_.back();
  const size_t col = levels_.size() - 1;
  ++stats_[col].nexts;
  level.pos = level.end;
  if (level.pos < level.range_end) {
    level.end = RunEnd(col, level.pos, level.range_end);
  }
}

void TrieIterator::Seek(VarValue v) {
  Level& level = levels_.back();
  const size_t col = levels_.size() - 1;
  ++stats_[col].seeks;
  level.pos = LowerBound(col, level.pos, level.range_end, v);
  if (level.pos < level.range_end) {
    level.end = RunEnd(col, level.pos, level.range_end);
  }
}

// --- Degraded-mode helpers --------------------------------------------------

namespace {

// Streaming scan over one spilled child relation. Rewind-and-read only; the
// SpillFile stays owned by the TrieJoin stage so its lifetime (and on-disk
// cleanup) follows the operator's.
class SpillScan : public PhysicalOperator {
 public:
  SpillScan(SpillFile* file, Schema schema)
      : file_(file), schema_(std::move(schema)) {}

  Status Open() override {
    scratch_.resize(schema_.arity());
    return file_->Rewind();
  }

  StatusOr<bool> NextBatch(RowBatch* batch) override {
    batch->Prepare(schema_.arity());
    double measure = 0;
    while (!batch->full()) {
      MPFDB_ASSIGN_OR_RETURN(bool has, file_->Next(scratch_.data(), &measure));
      if (!has) break;
      batch->AppendRow(scratch_.data(), measure);
    }
    MPFDB_RETURN_IF_ERROR(PollContext(batch->num_rows()));
    return !batch->empty();
  }

  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "SpillScan"; }

 private:
  SpillFile* file_;
  Schema schema_;
  std::vector<VarValue> scratch_;
};

}  // namespace

// --- TrieJoin ---------------------------------------------------------------

TrieJoin::TrieJoin(std::vector<OperatorPtr> children,
                   std::vector<std::string> var_order, Semiring semiring)
    : children_(std::move(children)),
      var_order_(std::move(var_order)),
      semiring_(semiring),
      schema_(var_order_, children_.empty()
                              ? std::string("f")
                              : children_[0]->output_schema().measure_name()) {}

TrieJoin::~TrieJoin() = default;

void TrieJoin::BindContext(QueryContext* ctx) {
  ctx_ = ctx;
  memory_.Bind(ctx);
  for (auto& child : children_) child->BindContext(ctx);
}

Status TrieJoin::Open() {
  if (children_.size() < 2) {
    return Status::Internal("TrieJoin requires at least two children");
  }
  std::vector<std::string> covered;
  for (const auto& child : children_) {
    covered = varset::Union(covered, child->output_schema().variables());
  }
  if (!varset::SetEquals(covered, var_order_)) {
    return Status::Internal(
        "TrieJoin variable order does not cover its children");
  }
  memory_.set_stats(stats_);
  MPFDB_RETURN_IF_ERROR(EnsureStaged());
  if (degraded_) return Status::Ok();
  return InitMachine();
}

Status TrieJoin::EnsureStaged() {
  if (staged_) return Status::Ok();
  MPFDB_RETURN_IF_ERROR(StageChildren());
  if (degraded_) MPFDB_RETURN_IF_ERROR(BuildDegradedPipeline());
  staged_ = true;
  return Status::Ok();
}

Status TrieJoin::StageChildren() {
  stages_.clear();
  stages_.resize(children_.size());
  for (size_t c = 0; c < children_.size(); ++c) {
    ChildStage& stage = stages_[c];
    const Schema& child_schema = children_[c]->output_schema();
    stage.vars = varset::Intersect(var_order_, child_schema.variables());
    stage.arity = stage.vars.size();
    if (stage.arity == 0) {
      return Status::Internal("TrieJoin child shares no variable");
    }
    stage.from_child.reserve(stage.arity);
    for (const auto& var : stage.vars) {
      stage.from_child.push_back(*child_schema.IndexOf(var));
    }
  }

  RowBatch batch;
  for (size_t c = 0; c < children_.size(); ++c) {
    ChildStage& stage = stages_[c];
    MPFDB_RETURN_IF_ERROR(children_[c]->Open());
    // Drain through a lambda so the child is Closed on every exit path —
    // blocking operators must tear down build state before errors surface.
    Status drained = [&]() -> Status {
      while (true) {
        MPFDB_ASSIGN_OR_RETURN(bool has, children_[c]->NextBatch(&batch));
        if (!has) break;
        const size_t n = batch.num_rows();
        MPFDB_RETURN_IF_ERROR(PollContext(n));
        if (!degraded_) {
          const size_t bytes =
              n * (stage.arity * sizeof(VarValue) + sizeof(double));
          Status charged = memory_.Charge(bytes, "TrieJoin");
          if (!charged.ok()) {
            if (charged.code() != StatusCode::kResourceExhausted ||
                ctx_ == nullptr || !ctx_->spill_enabled()) {
              return charged;
            }
            MPFDB_RETURN_IF_ERROR(DegradeToSpill());
          }
        }
        if (degraded_) {
          MPFDB_RETURN_IF_ERROR(AppendToSpill(&stage, batch));
        } else {
          const size_t base = stage.rows.size();
          stage.rows.resize(base + n * stage.arity);
          for (size_t d = 0; d < stage.arity; ++d) {
            const VarValue* col = batch.col(stage.from_child[d]);
            VarValue* out = stage.rows.data() + base + d;
            for (size_t r = 0; r < n; ++r) out[r * stage.arity] = col[r];
          }
          stage.measures.insert(stage.measures.end(), batch.measures(),
                                batch.measures() + n);
        }
      }
      return Status::Ok();
    }();
    children_[c]->Close();
    MPFDB_RETURN_IF_ERROR(drained);
  }

  if (!degraded_) {
    for (ChildStage& stage : stages_) {
      Status sorted = SortStage(&stage);
      if (!sorted.ok()) {
        if (sorted.code() != StatusCode::kResourceExhausted ||
            ctx_ == nullptr || !ctx_->spill_enabled()) {
          return sorted;
        }
        // The sort scratch overflowed the budget: spill everything (the
        // cascade does not need sorted inputs) and fall through.
        MPFDB_RETURN_IF_ERROR(DegradeToSpill());
        break;
      }
    }
  }
  return Status::Ok();
}

Status TrieJoin::SortStage(ChildStage* stage) {
  const size_t n = stage->measures.size();
  if (n <= 1) return Status::Ok();
  const size_t arity = stage->arity;
  // The permutation plus the reordered copies live alongside the arena for
  // the duration of the sort; a scoped guard keeps the peak honest and
  // releases the transient on every exit path.
  MemoryGuard scratch(ctx_);
  scratch.set_stats(stats_);
  MPFDB_RETURN_IF_ERROR(scratch.Charge(
      n * (sizeof(uint32_t) + arity * sizeof(VarValue) + sizeof(double)),
      "TrieJoin sort"));
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const VarValue* rows = stage->rows.data();
  std::stable_sort(perm.begin(), perm.end(),
                   [rows, arity](uint32_t a, uint32_t b) {
                     const VarValue* ra = rows + static_cast<size_t>(a) * arity;
                     const VarValue* rb = rows + static_cast<size_t>(b) * arity;
                     return std::lexicographical_compare(ra, ra + arity, rb,
                                                         rb + arity);
                   });
  std::vector<VarValue> sorted_rows(n * arity);
  std::vector<double> sorted_measures(n);
  for (size_t i = 0; i < n; ++i) {
    const VarValue* src = rows + static_cast<size_t>(perm[i]) * arity;
    std::copy(src, src + arity, sorted_rows.data() + i * arity);
    sorted_measures[i] = stage->measures[perm[i]];
  }
  stage->rows = std::move(sorted_rows);
  stage->measures = std::move(sorted_measures);
  return Status::Ok();
}

Status TrieJoin::DegradeToSpill() {
  degraded_ = true;
  for (ChildStage& stage : stages_) {
    if (stage.measures.empty() && stage.rows.empty()) continue;
    MPFDB_ASSIGN_OR_RETURN(
        stage.spill, SpillFile::Create(ctx_->NextSpillPath(), stage.arity));
    if (stats_ != nullptr) ++stats_->spill_partitions;
    const size_t n = stage.measures.size();
    for (size_t r = 0; r < n; ++r) {
      MPFDB_RETURN_IF_ERROR(PollContext(1));
      MPFDB_RETURN_IF_ERROR(stage.spill->Append(
          stage.rows.data() + r * stage.arity, stage.measures[r]));
    }
    ctx_->RecordSpill(n, stage.spill->bytes_written());
    stage.rows.clear();
    stage.rows.shrink_to_fit();
    stage.measures.clear();
    stage.measures.shrink_to_fit();
  }
  memory_.ReleaseAll();
  return Status::Ok();
}

Status TrieJoin::AppendToSpill(ChildStage* stage, const RowBatch& batch) {
  if (stage->spill == nullptr) {
    MPFDB_ASSIGN_OR_RETURN(
        stage->spill, SpillFile::Create(ctx_->NextSpillPath(), stage->arity));
    if (stats_ != nullptr) ++stats_->spill_partitions;
  }
  const size_t n = batch.num_rows();
  std::vector<VarValue> scratch(stage->arity);
  uint64_t before = stage->spill->bytes_written();
  for (size_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < stage->arity; ++d) {
      scratch[d] = batch.col(stage->from_child[d])[r];
    }
    MPFDB_RETURN_IF_ERROR(stage->spill->Append(scratch.data(),
                                               batch.measures()[r]));
  }
  ctx_->RecordSpill(n, stage->spill->bytes_written() - before);
  return Status::Ok();
}

Status TrieJoin::BuildDegradedPipeline() {
  // Greedy connected join order (first-seen tie-break) so the hash cascade
  // avoids cross products whenever the hypergraph is connected.
  const size_t n = stages_.size();
  std::vector<bool> picked(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  order.push_back(0);
  picked[0] = true;
  std::vector<std::string> joined_vars = stages_[0].vars;
  while (order.size() < n) {
    size_t next = n;
    for (size_t c = 0; c < n; ++c) {
      if (picked[c]) continue;
      if (!varset::Intersect(joined_vars, stages_[c].vars).empty()) {
        next = c;
        break;
      }
    }
    if (next == n) {
      // Disconnected: take the first remaining child (cross product).
      for (size_t c = 0; c < n; ++c) {
        if (!picked[c]) {
          next = c;
          break;
        }
      }
    }
    picked[next] = true;
    order.push_back(next);
    joined_vars = varset::Union(joined_vars, stages_[next].vars);
  }

  const std::string& measure = schema_.measure_name();
  auto scan_for = [&](size_t c) -> OperatorPtr {
    return std::make_unique<SpillScan>(stages_[c].spill.get(),
                                       Schema(stages_[c].vars, measure));
  };
  OperatorPtr root = scan_for(order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    root = std::make_unique<HashProductJoin>(std::move(root),
                                             scan_for(order[i]), semiring_);
  }
  if (root->output_schema().variables() != var_order_) {
    root = std::make_unique<StreamProject>(std::move(root), var_order_);
  }
  root->BindContext(ctx_);
  MPFDB_RETURN_IF_ERROR(root->Open());
  degraded_root_ = std::move(root);
  return Status::Ok();
}

// --- LFTJ machine -----------------------------------------------------------

Status TrieJoin::InitMachine() {
  const size_t num_levels = var_order_.size();
  active_.assign(num_levels, {});
  for (size_t k = 0; k < num_levels; ++k) {
    for (size_t c = 0; c < stages_.size(); ++c) {
      if (varset::Contains(stages_[c].vars, var_order_[k])) {
        active_[k].push_back(c);
      }
    }
    if (active_[k].empty()) {
      return Status::Internal("TrieJoin level has no participating child");
    }
  }
  iters_.clear();
  iters_.reserve(stages_.size());
  for (const ChildStage& stage : stages_) {
    iters_.push_back(std::make_unique<TrieIterator>(
        stage.rows.data(), stage.measures.size(), stage.arity));
  }
  bound_.assign(num_levels, 0);
  odo_.assign(stages_.size(), 0);
  started_ = false;
  done_ = false;
  have_match_ = false;
  return Status::Ok();
}

void TrieJoin::OpenLevel(size_t k) {
  for (size_t c : active_[k]) iters_[c]->Open();
}

void TrieJoin::CloseLevel(size_t k) {
  for (size_t c : active_[k]) iters_[c]->Up();
}

StatusOr<bool> TrieJoin::SearchLevel(size_t k) {
  const std::vector<size_t>& act = active_[k];
  for (size_t c : act) {
    if (iters_[c]->AtEnd()) return false;
  }
  while (true) {
    VarValue max_key = iters_[act[0]]->Key();
    bool all_equal = true;
    for (size_t i = 1; i < act.size(); ++i) {
      VarValue key = iters_[act[i]]->Key();
      if (key != max_key) all_equal = false;
      if (key > max_key) max_key = key;
    }
    if (all_equal) {
      bound_[k] = max_key;
      return true;
    }
    for (size_t c : act) {
      if (iters_[c]->Key() >= max_key) continue;
      MPFDB_RETURN_IF_ERROR(PollContext(1));
      iters_[c]->Seek(max_key);
      if (iters_[c]->AtEnd()) return false;
    }
  }
}

StatusOr<bool> TrieJoin::AdvanceLevel(size_t k) {
  TrieIterator& lead = *iters_[active_[k][0]];
  if (lead.AtEnd()) return false;
  lead.Next();
  if (lead.AtEnd()) return false;
  return SearchLevel(k);
}

StatusOr<bool> TrieJoin::FindNextMatch() {
  if (done_) return false;
  const size_t num_levels = var_order_.size();
  size_t k;
  bool opening;
  if (!started_) {
    started_ = true;
    k = 0;
    opening = true;
  } else {
    k = num_levels - 1;
    opening = false;
  }
  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext(1));
    bool matched;
    if (opening) {
      OpenLevel(k);
      MPFDB_ASSIGN_OR_RETURN(matched, SearchLevel(k));
    } else {
      MPFDB_ASSIGN_OR_RETURN(matched, AdvanceLevel(k));
    }
    if (matched) {
      if (k == num_levels - 1) return true;
      ++k;
      opening = true;
    } else {
      CloseLevel(k);
      if (k == 0) {
        done_ = true;
        return false;
      }
      --k;
      opening = false;
    }
  }
}

StatusOr<bool> TrieJoin::NextBatch(RowBatch* batch) {
  if (degraded_) return degraded_root_->NextBatch(batch);
  const size_t arity = var_order_.size();
  batch->Prepare(arity);
  while (!batch->full()) {
    if (!have_match_) {
      MPFDB_ASSIGN_OR_RETURN(bool found, FindNextMatch());
      if (!found) break;
      have_match_ = true;
      for (size_t c = 0; c < iters_.size(); ++c) {
        odo_[c] = iters_[c]->block_begin();
      }
    }
    while (!batch->full()) {
      const size_t r = batch->num_rows();
      for (size_t k = 0; k < arity; ++k) batch->col(k)[r] = bound_[k];
      double measure = stages_[0].measures[odo_[0]];
      for (size_t c = 1; c < stages_.size(); ++c) {
        measure = semiring_.Multiply(measure, stages_[c].measures[odo_[c]]);
      }
      batch->measures()[r] = measure;
      batch->set_num_rows(r + 1);
      // Odometer over the duplicate-row match runs, child-major (the last
      // child varies fastest). The single-row common case exits in one step.
      size_t c = iters_.size();
      while (c-- > 0) {
        if (++odo_[c] < iters_[c]->block_end()) break;
        odo_[c] = iters_[c]->block_begin();
        if (c == 0) have_match_ = false;
      }
      if (!have_match_) break;
    }
  }
  MPFDB_RETURN_IF_ERROR(PollContext(batch->num_rows()));
  return !batch->empty();
}

void TrieJoin::CollectIteratorStats() {
  if (stats_ == nullptr || iters_.empty()) return;
  for (const auto& var : var_order_) {
    TrieVarStats entry;
    entry.var = var;
    for (size_t c = 0; c < stages_.size(); ++c) {
      const ChildStage& stage = stages_[c];
      for (size_t d = 0; d < stage.arity; ++d) {
        if (stage.vars[d] != var) continue;
        entry.seeks += iters_[c]->level_stats()[d].seeks;
        entry.nexts += iters_[c]->level_stats()[d].nexts;
      }
    }
    bool merged = false;
    for (TrieVarStats& existing : stats_->trie_vars) {
      if (existing.var == var) {
        existing.seeks += entry.seeks;
        existing.nexts += entry.nexts;
        merged = true;
        break;
      }
    }
    if (!merged) stats_->trie_vars.push_back(std::move(entry));
  }
}

void TrieJoin::TearDownMachine() {
  CollectIteratorStats();
  iters_.clear();
  started_ = false;
  done_ = false;
  have_match_ = false;
}

void TrieJoin::Close() {
  TearDownMachine();
  if (degraded_root_ != nullptr) {
    degraded_root_->Close();
    degraded_root_.reset();
  }
  stages_.clear();
  staged_ = false;
  degraded_ = false;
  memory_.ReleaseAll();
}

size_t TrieJoin::SourceRowsHint() const {
  if (staged_ && !degraded_) {
    size_t total = 0;
    for (const ChildStage& stage : stages_) {
      total += stage.measures.size();
    }
    return total;
  }
  size_t total = 0;
  for (const auto& child : children_) total += child->SourceRowsHint();
  return total;
}

}  // namespace mpfdb::exec
