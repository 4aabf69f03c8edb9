#include "opt/var_set.h"

#include <vector>

#include <gtest/gtest.h>

namespace mpfdb::opt {
namespace {

VarSet Of(std::initializer_list<VarId> ids) {
  VarSet set;
  for (VarId id : ids) set.Insert(id);
  return set;
}

std::vector<VarId> Members(const VarSet& set) {
  std::vector<VarId> ids;
  set.ForEach([&](VarId id) { ids.push_back(id); });
  return ids;
}

TEST(VarSetTest, EmptySet) {
  VarSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_FALSE(empty.Contains(200));
  EXPECT_TRUE(Members(empty).empty());
  EXPECT_TRUE(empty.IsSubsetOf(Of({3})));
  EXPECT_FALSE(empty.Intersects(Of({3})));
}

TEST(VarSetTest, Algebra) {
  const VarSet a = Of({1, 3, 5, 70});
  const VarSet b = Of({3, 4, 70, 130});
  EXPECT_EQ(Members(a | b), (std::vector<VarId>{1, 3, 4, 5, 70, 130}));
  EXPECT_EQ(Members(a & b), (std::vector<VarId>{3, 70}));
  EXPECT_EQ(Members(a - b), (std::vector<VarId>{1, 5}));
  EXPECT_EQ(Members(b - a), (std::vector<VarId>{4, 130}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(Of({1, 5}).Intersects(Of({3, 70})));
  EXPECT_FALSE(Of({70}).Intersects(Of({134})));
  EXPECT_TRUE((a & b).IsSubsetOf(a));
  EXPECT_TRUE((a & b).IsSubsetOf(b));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsSubsetOf(a | b));
  EXPECT_FALSE(Of({130}).IsSubsetOf(Of({2})));
  EXPECT_EQ(a | b, b | a);
  EXPECT_EQ(a & b, b & a);
  EXPECT_NE(a - b, b - a);
}

TEST(VarSetTest, InsertEraseAndContains) {
  VarSet set;
  set.Insert(7);
  set.Insert(7);
  set.Insert(99);
  EXPECT_EQ(Members(set), (std::vector<VarId>{7, 99}));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_TRUE(set.Contains(99));
  EXPECT_FALSE(set.Contains(98));
  set.Erase(7);
  set.Erase(500);  // absent, beyond every word: a no-op
  EXPECT_EQ(Members(set), (std::vector<VarId>{99}));
  set.Erase(99);
  EXPECT_TRUE(set.empty());
}

TEST(VarSetTest, IteratesInIdOrder) {
  const VarSet set = Of({129, 0, 64, 63, 2, 200, 65});
  EXPECT_EQ(Members(set), (std::vector<VarId>{0, 2, 63, 64, 65, 129, 200}));
}

// Ids 63, 64, 65 and 130 sit at the last inline bit, the first two spill
// bits, and the third word: each must land in its own place.
TEST(VarSetTest, WordBoundaries) {
  for (VarId id : {63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(id);
    const VarSet one = Of({id});
    EXPECT_EQ(Members(one), (std::vector<VarId>{id}));
    for (VarId other : {62u, 63u, 64u, 65u, 66u, 127u, 128u, 129u, 130u}) {
      EXPECT_EQ(one.Contains(other), other == id) << other;
    }
    EXPECT_TRUE(one.IsSubsetOf(Of({63, 64, 65, 130})));
    EXPECT_TRUE((one - Of({id})).empty());
  }
  const VarSet all = Of({63, 64, 65, 130});
  EXPECT_EQ(Members(all - Of({64})), (std::vector<VarId>{63, 65, 130}));
  EXPECT_EQ(Members(all & Of({65, 130, 131})), (std::vector<VarId>{65, 130}));
}

// A set that spilled and shrank back compares and hashes like one that
// never left the inline word.
TEST(VarSetTest, EqualityAndHashAcrossInlineAndSpilledForms) {
  const VarSet inline_form = Of({1, 40});

  VarSet erased = Of({1, 40, 130});
  erased.Erase(130);
  VarSet differenced = Of({1, 40, 64, 130}) - Of({64, 130});
  VarSet intersected = Of({1, 40, 70}) & Of({1, 40, 130});

  for (const VarSet* shrunk : {&erased, &differenced, &intersected}) {
    EXPECT_EQ(*shrunk, inline_form);
    EXPECT_EQ(shrunk->Hash(), inline_form.Hash());
    EXPECT_TRUE(shrunk->IsSubsetOf(inline_form));
    EXPECT_TRUE(inline_form.IsSubsetOf(*shrunk));
  }

  // Spilled sets built in different orders agree too.
  const VarSet x = Of({130, 5, 64});
  const VarSet y = Of({64}) | Of({5}) | Of({130});
  EXPECT_EQ(x, y);
  EXPECT_EQ(x.Hash(), y.Hash());
  EXPECT_NE(x, inline_form);

  // Emptied from the spill side, equal to the default set.
  VarSet emptied = Of({200});
  emptied.Erase(200);
  EXPECT_EQ(emptied, VarSet());
  EXPECT_EQ(emptied.Hash(), VarSet().Hash());
  EXPECT_TRUE(emptied.empty());
}

}  // namespace
}  // namespace mpfdb::opt
