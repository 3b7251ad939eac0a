//===- tests/support_test.cpp - Support-library unit tests ----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Ids.h"
#include "support/Rng.h"
#include "support/SortedIdSet.h"
#include "support/StringInterner.h"
#include "support/TextLines.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

using namespace herd;

namespace {

TEST(StrongIdTest, DefaultIsInvalid) {
  ThreadId T;
  EXPECT_FALSE(T.isValid());
  EXPECT_EQ(T, ThreadId::invalid());
}

TEST(StrongIdTest, EqualityAndOrdering) {
  LockId A(1), B(2), C(1);
  EXPECT_EQ(A, C);
  EXPECT_NE(A, B);
  EXPECT_LT(A, B);
}

TEST(LocationKeyTest, FieldKeysDistinguishObjectsAndFields) {
  LocationKey K1 = LocationKey::forField(ObjectId(3), FieldId(0));
  LocationKey K2 = LocationKey::forField(ObjectId(3), FieldId(1));
  LocationKey K3 = LocationKey::forField(ObjectId(4), FieldId(0));
  EXPECT_NE(K1, K2);
  EXPECT_NE(K1, K3);
  EXPECT_EQ(K1.object(), ObjectId(3));
  EXPECT_EQ(K3.object(), ObjectId(4));
}

TEST(LocationKeyTest, ArrayElementsShareOneLocation) {
  // "We associate only one memory location with all elements of a given
  // array" (Section 2.1, footnote 1).
  LocationKey A = LocationKey::forArray(ObjectId(7));
  LocationKey B = LocationKey::forArray(ObjectId(7));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, LocationKey::forArray(ObjectId(8)));
}

TEST(LocationKeyTest, FieldsMergedCollapsesFieldsNotObjects) {
  LocationKey K1 = LocationKey::forField(ObjectId(3), FieldId(0));
  LocationKey K2 = LocationKey::forField(ObjectId(3), FieldId(9));
  LocationKey K3 = LocationKey::forField(ObjectId(4), FieldId(0));
  EXPECT_EQ(K1.withFieldsMerged(), K2.withFieldsMerged());
  EXPECT_NE(K1.withFieldsMerged(), K3.withFieldsMerged());
  // Idempotent: merging twice changes nothing.
  EXPECT_EQ(K1.withFieldsMerged(),
            K1.withFieldsMerged().withFieldsMerged());
  // Merged keys keep the object identity (Table 3 counts objects).
  EXPECT_EQ(K1.withFieldsMerged().object(), ObjectId(3));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Different = false;
  for (int I = 0; I != 16 && !Different; ++I)
    Different = A.next() != B.next();
  EXPECT_TRUE(Different);
}

TEST(RngTest, BoundedValuesStayInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(RngTest, RoughlyUniformOverSmallBound) {
  Rng R(99);
  int Counts[4] = {0, 0, 0, 0};
  for (int I = 0; I != 4000; ++I)
    ++Counts[R.nextBelow(4)];
  for (int C : Counts) {
    EXPECT_GT(C, 800);
    EXPECT_LT(C, 1200);
  }
}

TEST(SortedIdSetTest, InsertEraseContains) {
  SortedIdSet<LockId> S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(LockId(5)));
  EXPECT_TRUE(S.insert(LockId(2)));
  EXPECT_FALSE(S.insert(LockId(5)));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(LockId(2)));
  EXPECT_FALSE(S.contains(LockId(3)));
  EXPECT_TRUE(S.erase(LockId(2)));
  EXPECT_FALSE(S.erase(LockId(2)));
  EXPECT_EQ(S.size(), 1u);
}

TEST(SortedIdSetTest, IterationIsSorted) {
  SortedIdSet<LockId> S = {LockId(9), LockId(1), LockId(4)};
  std::vector<uint32_t> Seen;
  for (LockId L : S)
    Seen.push_back(L.index());
  EXPECT_EQ(Seen, (std::vector<uint32_t>{1, 4, 9}));
}

TEST(SortedIdSetTest, SubsetAndIntersects) {
  SortedIdSet<LockId> A = {LockId(1), LockId(3)};
  SortedIdSet<LockId> B = {LockId(1), LockId(2), LockId(3)};
  SortedIdSet<LockId> C = {LockId(4)};
  SortedIdSet<LockId> Empty;
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(Empty.isSubsetOf(A));
  EXPECT_TRUE(Empty.isSubsetOf(Empty));
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(A.intersects(C));
  EXPECT_FALSE(A.intersects(Empty));
}

TEST(SortedIdSetTest, UnionAndIntersection) {
  SortedIdSet<LockId> A = {LockId(1), LockId(3)};
  SortedIdSet<LockId> B = {LockId(3), LockId(5)};
  SortedIdSet<LockId> U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_EQ(U, (SortedIdSet<LockId>{LockId(1), LockId(3), LockId(5)}));
  EXPECT_FALSE(U.unionWith(B)); // no growth the second time
  SortedIdSet<LockId> I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_EQ(I, (SortedIdSet<LockId>{LockId(3)}));
  EXPECT_FALSE(I.intersectWith(B));
}

TEST(StringInternerTest, InterningIsStable) {
  StringInterner Interner;
  Symbol A = Interner.intern("foo");
  Symbol B = Interner.intern("bar");
  Symbol C = Interner.intern("foo");
  EXPECT_EQ(A, C);
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.text(A), "foo");
  EXPECT_EQ(Interner.text(B), "bar");
}

TEST(StringInternerTest, EmptyStringIsSymbolZero) {
  StringInterner Interner;
  Symbol E = Interner.intern("");
  EXPECT_TRUE(E.isEmpty());
  EXPECT_EQ(Interner.text(E), "");
}

TEST(LocationKeyTest, HashSpreadsKeys) {
  std::set<size_t> Hashes;
  std::hash<LocationKey> H;
  for (uint32_t Obj = 0; Obj != 64; ++Obj)
    for (uint32_t Field = 0; Field != 4; ++Field)
      Hashes.insert(H(LocationKey::forField(ObjectId(Obj), FieldId(Field))));
  // 256 distinct keys should hash to (nearly) 256 distinct values.
  EXPECT_GT(Hashes.size(), 250u);
}

TEST(TextLinesTest, EmptyListHasNoLines) {
  TextLines Lines;
  EXPECT_EQ(Lines.size(), 0u);
  EXPECT_TRUE(Lines.empty());
  EXPECT_EQ(Lines.begin(), Lines.end());
  TextLines Copy = Lines;
  EXPECT_TRUE(Copy.empty());
  EXPECT_EQ(Copy, Lines);
}

TEST(TextLinesTest, ManyLinesSpanManyBlocksAndReadBackExactly) {
  // About 1.4 MB of text: the doubling blocks top out at 64 KiB, so the
  // lines land in a few dozen blocks.
  std::vector<std::string> Want;
  TextLines Lines;
  for (uint32_t I = 0; I != 100000; ++I) {
    Want.push_back("line " + std::to_string(I) +
                   std::string(I % 17, char('a' + I % 26)));
    Lines.push_back(Want.back());
  }
  ASSERT_EQ(Lines.size(), Want.size());
  size_t I = 0;
  std::set<const char *> Starts;
  for (std::string_view Line : Lines) {
    ASSERT_EQ(Line, Want[I]) << "line " << I;
    EXPECT_EQ(Line.data(), Lines[I].data()) << "line " << I;
    Starts.insert(Line.data());
    ++I;
  }
  EXPECT_EQ(I, Want.size());
  EXPECT_EQ(Starts.size(), Want.size()) << "lines must not share storage";
}

TEST(TextLinesTest, EmptyLinesTakeNoRoom) {
  TextLines Lines;
  Lines.push_back("");
  Lines.push_back(std::string_view());
  Lines.push_back("hello");
  Lines.push_back("");
  Lines.push_back("world");
  ASSERT_EQ(Lines.size(), 5u);
  EXPECT_EQ(Lines[0], "");
  EXPECT_EQ(Lines[1], "");
  EXPECT_EQ(Lines[2], "hello");
  EXPECT_EQ(Lines[3], "");
  EXPECT_EQ(Lines[4], "world");
  EXPECT_EQ(Lines[4].data(), Lines[2].data() + 5);
}

TEST(TextLinesTest, LineLongerThanABlockGetsABlockOfItsOwn) {
  std::string Long(3 * TextLines::MaxBlockBytes, 'x');
  Long.back() = 'y';
  TextLines Lines;
  Lines.push_back("before");
  Lines.push_back(Long);
  Lines.push_back("after");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "before");
  EXPECT_EQ(Lines[1], Long);
  EXPECT_EQ(Lines[2], "after");
}

TEST(TextLinesTest, ViewsSurviveAMoveAndACopyOwnsItsText) {
  TextLines Lines;
  for (uint32_t I = 0; I != 5000; ++I)
    Lines.push_back("race " + std::to_string(I));
  std::vector<std::string_view> Before(Lines.begin(), Lines.end());

  TextLines Moved = std::move(Lines);
  ASSERT_EQ(Moved.size(), Before.size());
  for (size_t I = 0; I != Before.size(); ++I) {
    EXPECT_EQ(Moved[I].data(), Before[I].data()) << "line " << I;
    EXPECT_EQ(Moved[I], "race " + std::to_string(I));
  }
  TextLines Assigned;
  Assigned.push_back("replaced");
  Assigned = std::move(Moved);
  EXPECT_EQ(Assigned[4999].data(), Before[4999].data());

  TextLines Copy = Assigned;
  TextLines CopyAssigned;
  CopyAssigned = Assigned;
  EXPECT_EQ(Copy, Assigned);
  EXPECT_EQ(CopyAssigned, Assigned);
  EXPECT_NE(Copy[0].data(), Assigned[0].data());
  Assigned = TextLines(); // the copies hold text of their own
  for (size_t I = 0; I != Before.size(); ++I) {
    EXPECT_EQ(Copy[I], "race " + std::to_string(I));
    EXPECT_EQ(CopyAssigned[I], Copy[I]);
  }
  // Appending after a copy or a move writes only into the list's blocks.
  Copy.push_back("tail");
  EXPECT_EQ(Copy[5000], "tail");
  EXPECT_EQ(CopyAssigned.size(), 5000u);
}

TEST(TextLinesTest, EqualityComparesLinesNotBlocks) {
  TextLines A, B;
  for (std::string_view Line : {"one", "two"}) {
    A.push_back(Line);
    B.push_back(Line);
  }
  ASSERT_NE(A[0].data(), B[0].data());
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A != B);
  B.push_back("three");
  EXPECT_NE(A, B);
  A.push_back("thre");
  EXPECT_NE(A, B);
  TextLines C;
  C.push_back("one");
  C.push_back("tw");
  C.push_back("three");
  EXPECT_NE(B, C);
}

} // namespace
