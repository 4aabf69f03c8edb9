#ifndef MPFDB_OPT_VAR_SET_H_
#define MPFDB_OPT_VAR_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpfdb::opt {

// Dense id of a variable within one QueryContext: its index in all_vars.
using VarId = uint32_t;

// A set of VarIds as a bitset: ids 0-63 live in one inline word, larger ids
// in heap spill words, so views of up to 64 variables never allocate. The
// spill vector never ends in a zero word, so equal sets have equal members
// however they were built.
class VarSet {
 public:
  void Insert(VarId id) {
    if (id >= 64 && spill_.size() < id / 64) spill_.resize(id / 64, 0);
    *WordOf(id) |= Bit(id);
  }
  void Erase(VarId id) {
    if (id < 64 || id / 64 <= spill_.size()) *WordOf(id) &= ~Bit(id);
    Trim();
  }
  bool Contains(VarId id) const {
    if (id < 64) return word0_ & Bit(id);
    return id / 64 <= spill_.size() && (spill_[id / 64 - 1] & Bit(id));
  }
  bool empty() const { return word0_ == 0 && spill_.empty(); }
  bool Intersects(const VarSet& o) const { return !(*this & o).empty(); }
  bool IsSubsetOf(const VarSet& o) const { return (*this - o).empty(); }

  VarSet& operator|=(const VarSet& o) {
    word0_ |= o.word0_;
    if (spill_.size() < o.spill_.size()) spill_.resize(o.spill_.size(), 0);
    for (size_t i = 0; i < o.spill_.size(); ++i) spill_[i] |= o.spill_[i];
    return *this;
  }
  VarSet& operator&=(const VarSet& o) {
    word0_ &= o.word0_;
    spill_.resize(std::min(spill_.size(), o.spill_.size()));
    for (size_t i = 0; i < spill_.size(); ++i) spill_[i] &= o.spill_[i];
    Trim();
    return *this;
  }
  VarSet& operator-=(const VarSet& o) {
    word0_ &= ~o.word0_;
    for (size_t i = 0; i < std::min(spill_.size(), o.spill_.size()); ++i) {
      spill_[i] &= ~o.spill_[i];
    }
    Trim();
    return *this;
  }
  friend VarSet operator|(VarSet a, const VarSet& b) { return a |= b; }
  friend VarSet operator&(VarSet a, const VarSet& b) { return a &= b; }
  friend VarSet operator-(VarSet a, const VarSet& b) { return a -= b; }
  friend bool operator==(const VarSet&, const VarSet&) = default;

  size_t Hash() const {
    uint64_t h = word0_ * 0x9e3779b97f4a7c15ull;
    for (uint64_t w : spill_) h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  // Calls f(id) for every member in ascending id order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i <= spill_.size(); ++i) {
      for (uint64_t w = i == 0 ? word0_ : spill_[i - 1]; w != 0; w &= w - 1) {
        f(static_cast<VarId>(64 * i + __builtin_ctzll(w)));
      }
    }
  }

 private:
  static uint64_t Bit(VarId id) { return uint64_t{1} << (id % 64); }
  uint64_t* WordOf(VarId id) {
    return id < 64 ? &word0_ : &spill_[id / 64 - 1];
  }
  void Trim() {
    while (!spill_.empty() && spill_.back() == 0) spill_.pop_back();
  }

  uint64_t word0_ = 0;
  std::vector<uint64_t> spill_;  // spill_[i] holds ids 64(i+1) .. 64(i+1)+63
};

}  // namespace mpfdb::opt

#endif  // MPFDB_OPT_VAR_SET_H_
