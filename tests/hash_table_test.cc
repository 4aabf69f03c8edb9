// Unit + randomized differential tests for the Swiss-table hash layer
// (src/exec/hash_table.h), checked against std::unordered_map. Every
// randomized case derives its seed through CaseSeed so MPFDB_TEST_SEED
// sweeps reach the DIB/backward-shift machinery, and the whole suite runs
// twice — SIMD and forced-scalar — to keep both probe loops honest.

#include "exec/hash_table.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "random_view.h"

namespace mpfdb::exec {
namespace {

// Value-parameterized over the probe implementation: false = SSE2 (when
// compiled in), true = forced scalar fallback.
class HashTableTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    saved_ = ScalarHashProbesForced();
    SetForceScalarHashProbes(GetParam());
  }
  void TearDown() override { SetForceScalarHashProbes(saved_); }

 private:
  bool saved_ = false;
};

TEST_P(HashTableTest, InsertProbeErase) {
  SwissTable<int> table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(42), nullptr);

  auto [v1, fresh1] = table.FindOrInsert(42, 7);
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(*v1, 7);
  auto [v2, fresh2] = table.FindOrInsert(42, 99);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(*v2, 7);
  *v2 = 11;
  EXPECT_EQ(*table.Find(42), 11);
  EXPECT_EQ(table.size(), 1u);

  EXPECT_TRUE(table.Erase(42));
  EXPECT_FALSE(table.Erase(42));
  EXPECT_EQ(table.Find(42), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.ValidateInvariants());
}

TEST_P(HashTableTest, GrowthKeepsAllKeysAndInvariants) {
  const uint64_t seed = CaseSeed(1);
  MPFDB_TRACE_SEED(seed);
  std::mt19937_64 rng(seed);
  SwissTable<uint64_t> table(4);
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng() % 30000;
    uint64_t val = rng();
    auto [slot, fresh] = table.FindOrInsert(key, val);
    auto [it, ref_fresh] = ref.try_emplace(key, val);
    ASSERT_EQ(fresh, ref_fresh);
    ASSERT_EQ(*slot, it->second);
  }
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_TRUE(table.ValidateInvariants());
  size_t seen = 0;
  table.ForEach([&](uint64_t key, const uint64_t& val) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(val, it->second);
    ++seen;
  });
  EXPECT_EQ(seen, ref.size());
}

TEST_P(HashTableTest, EraseBackwardShiftLeavesNoTombstones) {
  const uint64_t seed = CaseSeed(2);
  MPFDB_TRACE_SEED(seed);
  std::mt19937_64 rng(seed);
  SwissTable<int> table;
  std::unordered_map<uint64_t, int> ref;
  // Mixed churn: the table repeatedly shrinks and refills, so any tombstone
  // scheme would accumulate dead slots; the DIB invariant plus the equal
  // capacity after churn prove backward-shift keeps the chains packed.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      uint64_t key = rng() % 500;
      table.FindOrInsert(key, round);
      ref.try_emplace(key, round);
    }
    for (int i = 0; i < 150; ++i) {
      uint64_t key = rng() % 500;
      ASSERT_EQ(table.Erase(key), ref.erase(key) > 0);
    }
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_TRUE(table.ValidateInvariants());
  }
  for (const auto& [key, val] : ref) {
    int* found = table.Find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, val);
  }
  // 500 possible keys never need more than the 512-slot table the churn
  // peaks at; tombstone-based deletion would have forced growth long ago.
  EXPECT_LE(table.capacity(), 1024u);
}

TEST_P(HashTableTest, ReserveAvoidsRehash) {
  SwissTable<int> table;
  table.Reserve(10000);
  size_t cap = table.capacity();
  for (uint64_t i = 0; i < 10000; ++i) table.FindOrInsert(i, 1);
  EXPECT_EQ(table.capacity(), cap);
  EXPECT_TRUE(table.ValidateInvariants());
}

TEST_P(HashTableTest, AdversarialHomeCollisions) {
  // Keys engineered to share low hash bits stress the displacement logic:
  // every insert lands on an occupied home slot.
  SwissTable<uint64_t> table(16);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 64; ++k) {
    if ((swiss::MixU64(k) >> 7) % 16 == 3) keys.push_back(k);
  }
  for (uint64_t k : keys) table.FindOrInsert(k, k * 2);
  ASSERT_TRUE(table.ValidateInvariants());
  for (uint64_t k : keys) {
    auto* v = table.Find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 2);
  }
}

TEST_P(HashTableTest, RandomizedDifferentialVsStdUnorderedMap) {
  for (uint64_t c = 0; c < 4; ++c) {
    const uint64_t seed = CaseSeed(10 + c);
    MPFDB_TRACE_SEED(seed);
    std::mt19937_64 rng(seed);
    SwissTable<int64_t> table;
    std::unordered_map<uint64_t, int64_t> ref;
    for (int op = 0; op < 30000; ++op) {
      uint64_t key = rng() % 4096;
      switch (rng() % 4) {
        case 0:
        case 1: {
          int64_t val = static_cast<int64_t>(rng() % 1000);
          auto [slot, fresh] = table.FindOrInsert(key, val);
          auto [it, ref_fresh] = ref.try_emplace(key, val);
          ASSERT_EQ(fresh, ref_fresh);
          if (!fresh) {
            *slot += val;
            it->second += val;
          }
          break;
        }
        case 2: {
          int64_t* found = table.Find(key);
          auto it = ref.find(key);
          ASSERT_EQ(found != nullptr, it != ref.end());
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second);
          }
          break;
        }
        case 3:
          ASSERT_EQ(table.Erase(key), ref.erase(key) > 0);
          break;
      }
    }
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_TRUE(table.ValidateInvariants());
  }
}

TEST_P(HashTableTest, BytesTableInsertProbeErase) {
  SwissBytesTable<int> table;
  std::string a = "alpha", b = "beta";
  auto [v1, fresh1] = table.FindOrInsert(a.data(), a.size(), 1);
  EXPECT_TRUE(fresh1);
  auto [v2, fresh2] = table.FindOrInsert(b.data(), b.size(), 2);
  EXPECT_TRUE(fresh2);
  EXPECT_EQ(*v2, 2);
  EXPECT_EQ(*table.Find(a.data(), a.size()), 1);
  EXPECT_EQ(table.Find("gamma", 5), nullptr);
  EXPECT_TRUE(table.Erase(a.data(), a.size()));
  EXPECT_EQ(table.Find(a.data(), a.size()), nullptr);
  EXPECT_EQ(*table.Find(b.data(), b.size()), 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.ValidateInvariants());
}

TEST_P(HashTableTest, BytesTableArenaCompactsUnderChurn) {
  const uint64_t seed = CaseSeed(3);
  MPFDB_TRACE_SEED(seed);
  std::mt19937_64 rng(seed);
  SwissBytesTable<int> table;
  // Plan-cache-style churn: insert/erase long string keys far beyond the
  // live set size. Without arena compaction the arena grows linearly with
  // the number of inserts (~6 MB here); with it, it stays near live bytes.
  for (int i = 0; i < 20000; ++i) {
    std::string key = "query-fingerprint-" + std::to_string(rng() % 64);
    key.resize(300, 'x');
    if (rng() % 2 == 0) {
      table.FindOrInsert(key.data(), key.size(), i);
    } else {
      table.Erase(key.data(), key.size());
    }
    ASSERT_TRUE(table.size() <= 64);
  }
  EXPECT_LE(table.arena_bytes(), 300u * 64 * 4);
  EXPECT_TRUE(table.ValidateInvariants());
}

TEST_P(HashTableTest, BytesTableRandomizedDifferential) {
  const uint64_t seed = CaseSeed(4);
  MPFDB_TRACE_SEED(seed);
  std::mt19937_64 rng(seed);
  SwissBytesTable<int64_t> table;
  std::map<std::string, int64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    // Variable-length keys, including empty and embedded NULs.
    size_t len = rng() % 24;
    std::string key(len, '\0');
    for (auto& ch : key) ch = static_cast<char>(rng() % 7);
    switch (rng() % 3) {
      case 0: {
        int64_t val = static_cast<int64_t>(rng() % 100);
        auto [slot, fresh] = table.FindOrInsert(key.data(), key.size(), val);
        auto [it, ref_fresh] = ref.try_emplace(key, val);
        ASSERT_EQ(fresh, ref_fresh);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 1: {
        int64_t* found = table.Find(key.data(), key.size());
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
      case 2:
        ASSERT_EQ(table.Erase(key.data(), key.size()), ref.erase(key) > 0);
        break;
    }
  }
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_TRUE(table.ValidateInvariants());
  std::map<std::string, int64_t> drained;
  table.ForEach([&](const char* key, size_t len, const int64_t& val) {
    drained.emplace(std::string(key, len), val);
  });
  EXPECT_EQ(drained, ref);
}

INSTANTIATE_TEST_SUITE_P(ProbeImpl, HashTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Scalar" : "Simd";
                         });

TEST(HashTableDispatchTest, ScalarAndSimdScanAgree) {
  const uint64_t seed = CaseSeed(5);
  MPFDB_TRACE_SEED(seed);
  std::mt19937_64 rng(seed);
  for (int c = 0; c < 1000; ++c) {
    uint8_t ctrl[swiss::kGroup];
    for (auto& b : ctrl) {
      b = (rng() % 3 == 0) ? swiss::kEmpty
                           : static_cast<uint8_t>(rng() & 0x7f);
    }
    uint8_t h2 = static_cast<uint8_t>(rng() & 0x7f);
    swiss::GroupMask scalar = swiss::ScanGroupScalar(ctrl, h2);
    swiss::GroupMask dispatched = swiss::ScanGroup(ctrl, h2);
    ASSERT_EQ(scalar.match, dispatched.match);
    ASSERT_EQ(scalar.empty, dispatched.empty);
  }
}

}  // namespace
}  // namespace mpfdb::exec
