#include "server/plan_cache.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <vector>

namespace mpfdb::server {

StatusOr<BoundPlan> CachedPlan::Bind(const MpfQuerySpec& query) const {
  return plan.Inflate(*vocabulary, CanonicalSelections(query), query.having);
}

std::vector<QuerySelection> CanonicalSelections(const MpfQuerySpec& spec) {
  std::vector<QuerySelection> selections = spec.selections;
  std::sort(selections.begin(), selections.end(),
            [](const QuerySelection& a, const QuerySelection& b) {
              return a.var != b.var ? a.var < b.var : a.value < b.value;
            });
  return selections;
}

namespace {

// The key with or without selection values; the two forms use different
// section tags, so they never collide.
std::string QueryKey(const MpfQuerySpec& spec, bool with_values) {
  std::ostringstream os;
  os << "g:";
  for (const auto& var : spec.group_vars) os << var << ',';
  os << (with_values ? "|s:" : "|t:");
  for (const auto& sel : CanonicalSelections(spec)) {
    os << sel.var;
    if (with_values) os << '=' << sel.value;
    os << ',';
  }
  os << "|h:";
  if (spec.having.has_value()) {
    // Shortest round-trip rendering: thresholds that differ in any bit get
    // different keys (the stream default of six digits merged them).
    char buf[32];
    const char* end =
        std::to_chars(buf, buf + sizeof(buf), spec.having->threshold).ptr;
    os << CompareOpSymbol(spec.having->op) << std::string_view(buf, end - buf);
  }
  return os.str();
}

}  // namespace

std::string CanonicalQueryKey(const MpfQuerySpec& spec) {
  return QueryKey(spec, /*with_values=*/true);
}

std::string TemplateQueryKey(const MpfQuerySpec& spec) {
  const std::vector<QuerySelection> selections = CanonicalSelections(spec);
  for (size_t i = 1; i < selections.size(); ++i) {
    if (selections[i].var == selections[i - 1].var) {
      return QueryKey(spec, /*with_values=*/true);
    }
  }
  return QueryKey(spec, /*with_values=*/false);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const std::string& key,
                                                    uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = entries_.Find(key.data(), key.size());
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  if (entry->epoch != epoch) {
    ++stats_.invalidations;
    ++stats_.misses;
    EraseLocked(key, entry);
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, entry->lru_pos);
  return entry->plan;
}

void PlanCache::Insert(const std::string& key, uint64_t epoch,
                       std::shared_ptr<const CachedPlan> plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = entries_.Find(key.data(), key.size());
      existing != nullptr) {
    EraseLocked(key, existing);
  }
  lru_.push_front(key);
  const size_t bytes = plan != nullptr ? plan->plan.Bytes() : 0;
  stats_.bytes += bytes;
  entries_.FindOrInsert(key.data(), key.size(),
                        Entry{epoch, std::move(plan), lru_.begin(), bytes});
  ++stats_.inserts;
  while (entries_.size() > capacity_) {
    const std::string victim = lru_.back();
    ++stats_.evictions;
    EraseLocked(victim, entries_.Find(victim.data(), victim.size()));
  }
}

void PlanCache::OnEpochBump(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Collect-then-erase: Erase may compact the key arena, so the sweep must
  // not walk the table while dropping entries.
  std::vector<std::string> stale;
  entries_.ForEach([&](const char* k, size_t len, const Entry& entry) {
    if (entry.epoch < epoch) stale.emplace_back(k, len);
  });
  for (const std::string& key : stale) {
    ++stats_.invalidations;
    EraseLocked(key, entries_.Find(key.data(), key.size()));
  }
  std::erase_if(vocabularies_,
                [&](const auto& kv) { return kv.second.epoch < epoch; });
}

StatusOr<std::shared_ptr<const PlanVocabulary>> PlanCache::Vocabulary(
    const MpfViewDef& view, const Catalog& catalog,
    const CostModel& cost_model, uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = vocabularies_.find(view.name);
    if (it != vocabularies_.end() && it->second.epoch == epoch) {
      return it->second.vocabulary;
    }
  }
  MPFDB_ASSIGN_OR_RETURN(std::shared_ptr<const PlanVocabulary> built,
                         PlanVocabulary::Build(view, catalog, cost_model));
  std::lock_guard<std::mutex> lock(mu_);
  VocabularyEntry& entry = vocabularies_[view.name];
  if (entry.vocabulary == nullptr || entry.epoch != epoch) {
    entry = VocabularyEntry{epoch, std::move(built)};
  }
  return entry.vocabulary;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = exec::SwissBytesTable<Entry>();
  lru_.clear();
  vocabularies_.clear();
  stats_.bytes = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void PlanCache::EraseLocked(const std::string& key, Entry* entry) {
  stats_.bytes -= entry->bytes;
  lru_.erase(entry->lru_pos);
  entries_.Erase(key.data(), key.size());
}

}  // namespace mpfdb::server
