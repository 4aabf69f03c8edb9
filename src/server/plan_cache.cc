#include "server/plan_cache.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace mpfdb::server {

std::string CanonicalQueryKey(const MpfQuerySpec& spec) {
  std::ostringstream os;
  os << "g:";
  for (const auto& var : spec.group_vars) os << var << ',';
  std::vector<QuerySelection> selections = spec.selections;
  std::sort(selections.begin(), selections.end(),
            [](const QuerySelection& a, const QuerySelection& b) {
              return a.var != b.var ? a.var < b.var : a.value < b.value;
            });
  os << "|s:";
  for (const auto& sel : selections) os << sel.var << '=' << sel.value << ',';
  os << "|h:";
  if (spec.having.has_value()) {
    os << CompareOpSymbol(spec.having->op) << spec.having->threshold;
  }
  return os.str();
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
  entries_.FindOrInsert(key.data(), key.size(),
                        Entry{epoch, std::move(plan), lru_.begin()});
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
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = exec::SwissBytesTable<Entry>();
  lru_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void PlanCache::EraseLocked(const std::string& key, Entry* entry) {
  lru_.erase(entry->lru_pos);
  entries_.Erase(key.data(), key.size());
}

}  // namespace mpfdb::server
