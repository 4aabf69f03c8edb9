#ifndef MPFDB_EXEC_HASH_TABLE_H_
#define MPFDB_EXEC_HASH_TABLE_H_

// The one hash-table family of the engine. Two structures share one design:
//
//  * SwissTable<V>       — packed 64-bit keys -> V (join heads, marginalize
//                          folds, storage hash indexes, VE-cache row locator).
//  * SwissBytesTable<V>  — arbitrary byte-string keys -> V (vector-key
//                          fallback, fr-algebra clique maps, plan cache).
//
// The Swiss tables are open-addressing with one control byte per slot:
// 0x80 marks an empty slot, otherwise the byte holds the low 7 bits of the
// key's hash (H2) and the remaining bits (H1) pick the home slot. Probes
// scan 16-byte control groups with SSE2 (_mm_cmpeq_epi8 for H2 candidates;
// empties fall out of _mm_movemask_epi8 directly because 0x80 is the only
// control value with the sign bit set), with a portable scalar fallback
// selected at compile time on non-SSE2 targets and at runtime via
// SetForceScalarHashProbes (sanitizer/bench A-B runs). The control array
// carries a 16-byte mirror of its head so group loads never wrap.
//
// Displacement is Robin Hood: an insert walking the probe chain swaps with
// any resident whose distance-to-initial-bucket (DIB) is smaller than the
// prober's, and Erase backward-shifts the following chain instead of
// leaving a tombstone. Two consequences the operators rely on: probe chains
// are contiguous (a lookup can stop at the first empty control byte), and
// load factor can run to 7/8 without degenerate chains. Iteration order is
// unspecified — every caller either sorts its output afterwards or is
// insensitive to order.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mpfdb::exec {

// Runtime kill switch for the SSE2 probe loop (scalar fallback is always
// compiled). Reads MPFDB_SCALAR_HASH=1 from the environment once at startup;
// tests flip it explicitly to cover both paths on one binary.
bool ScalarHashProbesForced();
void SetForceScalarHashProbes(bool force);

namespace swiss {

inline constexpr size_t kGroup = 16;
inline constexpr uint8_t kEmpty = 0x80;

inline uint64_t MixU64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// 64-bit FNV-1a, then a splitmix finalize so short keys still spread over
// both the H1 (slot) and H2 (control byte) ranges.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return MixU64(h);
}

inline uint8_t H2(uint64_t hash) { return static_cast<uint8_t>(hash & 0x7f); }
inline size_t H1(uint64_t hash) { return static_cast<size_t>(hash >> 7); }

// Bitmasks over one 16-byte control group starting at `ctrl` (which may
// read into the mirrored tail): bit i of `match` set iff ctrl[i] == h2,
// bit i of `empty` set iff ctrl[i] is empty.
struct GroupMask {
  uint32_t match;
  uint32_t empty;
};

inline GroupMask ScanGroupScalar(const uint8_t* ctrl, uint8_t h2) {
  GroupMask m{0, 0};
  for (size_t i = 0; i < kGroup; ++i) {
    if (ctrl[i] == h2) m.match |= 1u << i;
    if (ctrl[i] == kEmpty) m.empty |= 1u << i;
  }
  return m;
}

inline GroupMask ScanGroup(const uint8_t* ctrl, uint8_t h2) {
#if defined(__SSE2__)
  if (!ScalarHashProbesForced()) {
    __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    __m128i match = _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(h2)));
    GroupMask m;
    m.match = static_cast<uint32_t>(_mm_movemask_epi8(match));
    // kEmpty (0x80) is the only control value with the sign bit set, so the
    // group's own movemask is exactly the empty mask.
    m.empty = static_cast<uint32_t>(_mm_movemask_epi8(group));
    return m;
  }
#endif
  return ScanGroupScalar(ctrl, h2);
}

inline int CountTrailingZeros(uint32_t x) { return __builtin_ctz(x); }

}  // namespace swiss

// Swiss table from packed uint64 keys to a small payload: FindOrInsert,
// Find, Erase, Reserve, ForEach/ForEachMutable, plus the DIB invariant
// check the unit tests assert.
template <typename V>
class SwissTable {
 public:
  explicit SwissTable(size_t expected = 64) { Init(SlotCountFor(expected)); }

  // Payload slot for `key`, inserting `init` if absent; second is true iff
  // the key was newly inserted. Pointers are invalidated by the next
  // mutating call.
  std::pair<V*, bool> FindOrInsert(uint64_t key, const V& init) {
    if ((size_ + 1) * 8 > capacity_ * 7) Grow(capacity_ * 2);
    uint64_t hash = swiss::MixU64(key);
    size_t i = FindSlot(key, hash);
    if (i != kNoSlot) return {&vals_[i], false};
    size_t slot = InsertFresh(key, hash, V(init));
    return {&vals_[slot], true};
  }

  V* Find(uint64_t key) {
    size_t i = FindSlot(key, swiss::MixU64(key));
    return i == kNoSlot ? nullptr : &vals_[i];
  }
  const V* Find(uint64_t key) const {
    size_t i = FindSlot(key, swiss::MixU64(key));
    return i == kNoSlot ? nullptr : &vals_[i];
  }

  // Removes `key` if present, backward-shifting the displaced run so no
  // tombstone is left behind. Returns true iff a key was removed.
  bool Erase(uint64_t key) {
    size_t i = FindSlot(key, swiss::MixU64(key));
    if (i == kNoSlot) return false;
    size_t mask = capacity_ - 1;
    size_t next = (i + 1) & mask;
    while (ctrl_[next] != swiss::kEmpty && DibOf(next) > 0) {
      keys_[i] = keys_[next];
      vals_[i] = std::move(vals_[next]);
      SetCtrl(i, ctrl_[next]);
      i = next;
      next = (next + 1) & mask;
    }
    SetCtrl(i, swiss::kEmpty);
    vals_[i] = V();
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  void Reserve(size_t expected) {
    size_t want = SlotCountFor(expected);
    if (want > capacity_) Grow(want);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != swiss::kEmpty) fn(keys_[i], vals_[i]);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != swiss::kEmpty) fn(keys_[i], vals_[i]);
    }
  }

  // Robin Hood structural invariants, for the unit tests: every occupied
  // slot's DIB is at most one greater than its predecessor's, a slot after
  // an empty has DIB 0, and no control byte disagrees with its key's H2.
  bool ValidateInvariants() const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == swiss::kEmpty) continue;
      uint64_t hash = swiss::MixU64(keys_[i]);
      if (ctrl_[i] != swiss::H2(hash)) return false;
      size_t prev = (i + capacity_ - 1) & (capacity_ - 1);
      size_t dib = DibOf(i);
      if (ctrl_[prev] == swiss::kEmpty) {
        if (dib != 0) return false;
      } else if (dib > DibOf(prev) + 1) {
        return false;
      }
    }
    for (size_t j = 0; j < swiss::kGroup; ++j) {
      if (ctrl_[capacity_ + j] != ctrl_[j]) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  static size_t SlotCountFor(size_t expected) {
    size_t slots = swiss::kGroup;
    while (slots * 7 < expected * 8) slots <<= 1;
    return slots;
  }

  void Init(size_t cap) {
    capacity_ = cap;
    ctrl_.assign(cap + swiss::kGroup, swiss::kEmpty);
    keys_.assign(cap, 0);
    vals_.assign(cap, V());
    size_ = 0;
  }

  void SetCtrl(size_t i, uint8_t v) {
    ctrl_[i] = v;
    if (i < swiss::kGroup) ctrl_[capacity_ + i] = v;
  }

  size_t DibOf(size_t slot) const {
    size_t home = swiss::H1(swiss::MixU64(keys_[slot])) & (capacity_ - 1);
    return (slot - home) & (capacity_ - 1);
  }

  // Probe groups of 16 control bytes from the home slot; the chain is
  // tombstone-free, so the first empty byte bounds the search.
  size_t FindSlot(uint64_t key, uint64_t hash) const {
    size_t mask = capacity_ - 1;
    size_t i = swiss::H1(hash) & mask;
    uint8_t h2 = swiss::H2(hash);
    for (size_t probed = 0; probed <= capacity_; probed += swiss::kGroup) {
      swiss::GroupMask m = swiss::ScanGroup(ctrl_.data() + i, h2);
      uint32_t candidates = m.match;
      if (m.empty) candidates &= (1u << swiss::CountTrailingZeros(m.empty)) - 1;
      while (candidates) {
        size_t slot = (i + swiss::CountTrailingZeros(candidates)) & mask;
        if (keys_[slot] == key) return slot;
        candidates &= candidates - 1;
      }
      if (m.empty) return kNoSlot;
      i = (i + swiss::kGroup) & mask;
    }
    return kNoSlot;
  }

  // Robin Hood insertion of a key known to be absent: walk from the home
  // slot, swapping with any resident closer to its own home than we are to
  // ours. Returns the slot where `key` itself landed.
  size_t InsertFresh(uint64_t key, uint64_t hash, V&& val) {
    size_t mask = capacity_ - 1;
    size_t i = swiss::H1(hash) & mask;
    size_t dib = 0;
    size_t landed = kNoSlot;
    uint8_t h2 = swiss::H2(hash);
    while (true) {
      if (ctrl_[i] == swiss::kEmpty) {
        keys_[i] = key;
        vals_[i] = std::move(val);
        SetCtrl(i, h2);
        ++size_;
        return landed == kNoSlot ? i : landed;
      }
      size_t resident_dib = DibOf(i);
      if (resident_dib < dib) {
        std::swap(keys_[i], key);
        std::swap(vals_[i], val);
        uint8_t evicted_h2 = ctrl_[i];
        SetCtrl(i, h2);
        h2 = evicted_h2;
        if (landed == kNoSlot) landed = i;
        dib = resident_dib;
      }
      i = (i + 1) & mask;
      ++dib;
    }
  }

  void Grow(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    size_t old_cap = capacity_;
    Init(new_cap);
    for (size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] == swiss::kEmpty) continue;
      InsertFresh(old_keys[i], swiss::MixU64(old_keys[i]),
                  std::move(old_vals[i]));
    }
  }

  size_t capacity_ = 0;
  size_t size_ = 0;
  std::vector<uint8_t> ctrl_;
  std::vector<uint64_t> keys_;
  std::vector<V> vals_;
};

// Swiss table keyed by arbitrary byte strings (vector<VarValue> keys cast
// to bytes, plan-cache string keys). Keys are interned into one contiguous
// arena; each slot stores the full 64-bit hash (reused for the DIB
// computation and as a cheap pre-compare) plus the arena offset/length.
// Erase backward-shifts like SwissTable and leaves its key bytes dead in
// the arena; rehash rebuilds the arena from live entries, and a mutation
// that finds more dead than live bytes triggers that compaction early so
// churn-heavy callers (the plan cache) can't grow the arena without bound.
template <typename V>
class SwissBytesTable {
 public:
  explicit SwissBytesTable(size_t expected = 16) { Init(SlotCountFor(expected)); }

  std::pair<V*, bool> FindOrInsert(const void* key, size_t len, const V& init) {
    MaybeCompact();
    if ((size_ + 1) * 8 > capacity_ * 7) Grow(capacity_ * 2);
    uint64_t hash = swiss::HashBytes(key, len);
    size_t i = FindSlot(key, len, hash);
    if (i != kNoSlot) return {&vals_[i], false};
    Slot fresh;
    fresh.hash = hash;
    fresh.off = arena_.size();
    fresh.len = static_cast<uint32_t>(len);
    arena_.insert(arena_.end(), static_cast<const char*>(key),
                  static_cast<const char*>(key) + len);
    size_t slot = InsertFresh(fresh, V(init));
    return {&vals_[slot], true};
  }

  V* Find(const void* key, size_t len) {
    size_t i = FindSlot(key, len, swiss::HashBytes(key, len));
    return i == kNoSlot ? nullptr : &vals_[i];
  }
  const V* Find(const void* key, size_t len) const {
    size_t i = FindSlot(key, len, swiss::HashBytes(key, len));
    return i == kNoSlot ? nullptr : &vals_[i];
  }

  bool Erase(const void* key, size_t len) {
    size_t i = FindSlot(key, len, swiss::HashBytes(key, len));
    if (i == kNoSlot) return false;
    dead_bytes_ += slots_[i].len;
    size_t mask = capacity_ - 1;
    size_t next = (i + 1) & mask;
    while (ctrl_[next] != swiss::kEmpty && DibOf(next) > 0) {
      slots_[i] = slots_[next];
      vals_[i] = std::move(vals_[next]);
      SetCtrl(i, ctrl_[next]);
      i = next;
      next = (next + 1) & mask;
    }
    SetCtrl(i, swiss::kEmpty);
    vals_[i] = V();
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  size_t arena_bytes() const { return arena_.size(); }

  void Reserve(size_t expected) {
    size_t want = SlotCountFor(expected);
    if (want > capacity_) Grow(want);
  }

  // fn(const char* key, size_t len, const V& value), unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != swiss::kEmpty) {
        fn(arena_.data() + slots_[i].off, slots_[i].len, vals_[i]);
      }
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != swiss::kEmpty) {
        fn(arena_.data() + slots_[i].off, slots_[i].len, vals_[i]);
      }
    }
  }

  bool ValidateInvariants() const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == swiss::kEmpty) continue;
      if (ctrl_[i] != swiss::H2(slots_[i].hash)) return false;
      size_t prev = (i + capacity_ - 1) & (capacity_ - 1);
      size_t dib = DibOf(i);
      if (ctrl_[prev] == swiss::kEmpty) {
        if (dib != 0) return false;
      } else if (dib > DibOf(prev) + 1) {
        return false;
      }
    }
    for (size_t j = 0; j < swiss::kGroup; ++j) {
      if (ctrl_[capacity_ + j] != ctrl_[j]) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  struct Slot {
    uint64_t hash = 0;
    size_t off = 0;
    uint32_t len = 0;
  };

  static size_t SlotCountFor(size_t expected) {
    size_t slots = swiss::kGroup;
    while (slots * 7 < expected * 8) slots <<= 1;
    return slots;
  }

  void Init(size_t cap) {
    capacity_ = cap;
    ctrl_.assign(cap + swiss::kGroup, swiss::kEmpty);
    slots_.assign(cap, Slot{});
    vals_.assign(cap, V());
    size_ = 0;
  }

  void SetCtrl(size_t i, uint8_t v) {
    ctrl_[i] = v;
    if (i < swiss::kGroup) ctrl_[capacity_ + i] = v;
  }

  size_t DibOf(size_t slot) const {
    size_t home = swiss::H1(slots_[slot].hash) & (capacity_ - 1);
    return (slot - home) & (capacity_ - 1);
  }

  bool KeyEquals(const Slot& s, const void* key, size_t len,
                 uint64_t hash) const {
    // Zero-length keys (group-by-nothing) may come with null pointers,
    // which memcmp must not see even for a zero length.
    return s.hash == hash && s.len == len &&
           (len == 0 || std::memcmp(arena_.data() + s.off, key, len) == 0);
  }

  size_t FindSlot(const void* key, size_t len, uint64_t hash) const {
    size_t mask = capacity_ - 1;
    size_t i = swiss::H1(hash) & mask;
    uint8_t h2 = swiss::H2(hash);
    for (size_t probed = 0; probed <= capacity_; probed += swiss::kGroup) {
      swiss::GroupMask m = swiss::ScanGroup(ctrl_.data() + i, h2);
      uint32_t candidates = m.match;
      if (m.empty) candidates &= (1u << swiss::CountTrailingZeros(m.empty)) - 1;
      while (candidates) {
        size_t slot = (i + swiss::CountTrailingZeros(candidates)) & mask;
        if (KeyEquals(slots_[slot], key, len, hash)) return slot;
        candidates &= candidates - 1;
      }
      if (m.empty) return kNoSlot;
      i = (i + swiss::kGroup) & mask;
    }
    return kNoSlot;
  }

  size_t InsertFresh(Slot entry, V&& val) {
    size_t mask = capacity_ - 1;
    size_t i = swiss::H1(entry.hash) & mask;
    size_t dib = 0;
    size_t landed = kNoSlot;
    uint8_t h2 = swiss::H2(entry.hash);
    while (true) {
      if (ctrl_[i] == swiss::kEmpty) {
        slots_[i] = entry;
        vals_[i] = std::move(val);
        SetCtrl(i, h2);
        ++size_;
        return landed == kNoSlot ? i : landed;
      }
      size_t resident_dib = DibOf(i);
      if (resident_dib < dib) {
        std::swap(slots_[i], entry);
        std::swap(vals_[i], val);
        uint8_t evicted_h2 = ctrl_[i];
        SetCtrl(i, h2);
        h2 = evicted_h2;
        if (landed == kNoSlot) landed = i;
        dib = resident_dib;
      }
      i = (i + 1) & mask;
      ++dib;
    }
  }

  void MaybeCompact() {
    if (dead_bytes_ > 0 && dead_bytes_ * 2 > arena_.size()) Grow(capacity_);
  }

  // Rebuild at `new_cap` (which may equal capacity_: arena compaction
  // only), re-interning every live key so dead bytes are dropped.
  void Grow(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<char> old_arena = std::move(arena_);
    size_t old_cap = capacity_;
    Init(new_cap);
    arena_.reserve(old_arena.size() - dead_bytes_);
    dead_bytes_ = 0;
    for (size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] == swiss::kEmpty) continue;
      Slot s = old_slots[i];
      size_t off = arena_.size();
      arena_.insert(arena_.end(), old_arena.data() + s.off,
                    old_arena.data() + s.off + s.len);
      s.off = off;
      InsertFresh(s, std::move(old_vals[i]));
    }
  }

  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t dead_bytes_ = 0;
  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::vector<V> vals_;
  std::vector<char> arena_;
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_HASH_TABLE_H_
