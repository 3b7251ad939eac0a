//===- tests/paired_ratio_test.cpp - The benches' paired timing ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench/PairedRatio.h produces the data the hot-path gate reads: its
/// quartiles follow herdbench's rule, and pairedRatio runs one untimed
/// pair, then alternates which side goes first, and returns B / A.
///
//===----------------------------------------------------------------------===//

#include "PairedRatio.h"

#include <gtest/gtest.h>

#include <string>

using namespace herd;

namespace {

TEST(PairedRatioTest, QuartilesInterpolateBetweenClosestRanks) {
  // herdbench's quantile (herdbench/Jobs.cpp): sort, then interpolate
  // linearly at position q * (n - 1).  Odd size: the ranks themselves.
  Quartiles Odd = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(Odd.Q1, 2);
  EXPECT_DOUBLE_EQ(Odd.Median, 3);
  EXPECT_DOUBLE_EQ(Odd.Q3, 4);
  // Even size: positions 0.75, 1.5 and 2.25 of {1, 2, 4, 8}.
  Quartiles Even = quartiles({8, 2, 1, 4});
  EXPECT_DOUBLE_EQ(Even.Q1, 1.75);
  EXPECT_DOUBLE_EQ(Even.Median, 3);
  EXPECT_DOUBLE_EQ(Even.Q3, 5);
  Quartiles One = quartiles({7});
  EXPECT_DOUBLE_EQ(One.Q1, 7);
  EXPECT_DOUBLE_EQ(One.Q3, 7);
}

TEST(PairedRatioTest, AlternatesAfterOneUntimedPairAndReturnsBOverA) {
  std::string Order;
  int ACalls = 0, BCalls = 0;
  // A's timed runs take 1 s and B's k-th timed run k + 1 s, so the
  // per-pair ratios are 2..22 only if the untimed pair (1e9 s and 1 s)
  // is dropped and each B is divided by its own pair's A.
  Quartiles Q = pairedRatio(
      [&] {
        Order += 'A';
        return ACalls++ ? 1.0 : 1e9;
      },
      [&] {
        Order += 'B';
        return double(++BCalls);
      });
  EXPECT_EQ(ACalls, PairsPerCell + 1);
  EXPECT_EQ(BCalls, PairsPerCell + 1);
  std::string Expected = "AB"; // the untimed pair
  for (int I = 0; I != PairsPerCell; ++I)
    Expected += I % 2 ? "BA" : "AB";
  EXPECT_EQ(Order, Expected);
  EXPECT_DOUBLE_EQ(Q.Q1, 7);
  EXPECT_DOUBLE_EQ(Q.Median, 12);
  EXPECT_DOUBLE_EQ(Q.Q3, 17);
}

} // namespace
