// Tests of the benchmark's own reference code: the textbook DPs, the
// percentile, and the match checks built on them.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "report.h"
#include "textbook.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<char> Chars(std::string_view s) { return {s.begin(), s.end()}; }

TEST(TextbookLevenshtein, KnownDistances) {
  EXPECT_EQ(TextbookLevenshtein(Chars("kitten"), Chars("sitting")), 3.0);
  EXPECT_EQ(TextbookLevenshtein(Chars("flaw"), Chars("lawn")), 2.0);
  EXPECT_EQ(TextbookLevenshtein(Chars(""), Chars("abc")), 3.0);
  EXPECT_EQ(TextbookLevenshtein(Chars("same"), Chars("same")), 0.0);
}

TEST(TextbookDtw, KnownDistances) {
  const std::vector<double> a = {1, 2, 3};
  EXPECT_EQ(TextbookDtw(a, a), 0.0);
  // Warping absorbs the repeated element at no cost.
  const std::vector<double> b = {1, 2, 2, 3};
  EXPECT_EQ(TextbookDtw(a, b), 0.0);
  // No warp helps: the middle element costs |2 - 5| on every path.
  const std::vector<double> c = {1, 5, 3};
  EXPECT_EQ(TextbookDtw(a, c), 3.0);
  // Single elements: the ground distance.
  EXPECT_EQ(TextbookDtw(std::vector<double>{0.5}, std::vector<double>{2.0}), 1.5);
  // Every element is matched: the extra 4 pairs with the last 3.
  EXPECT_EQ(TextbookDtw(a, std::vector<double>{1, 2, 3, 4}), 1.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.90), 90.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(NearlyEqual, RelativeTolerance) {
  EXPECT_TRUE(NearlyEqual(1e6, 1e6 + 1e-4));
  EXPECT_FALSE(NearlyEqual(1e6, 1e6 + 1e-2));
  EXPECT_TRUE(NearlyEqual(0.0, 1e-10));
  EXPECT_FALSE(NearlyEqual(0.0, 1e-8));
}

// A catalog of one sequence and a 41-long query planted at offset 2, with
// one substitution (lambda = 40, lambda0 = 2).
class CheckAnswerTest : public ::testing::Test {
 protected:
  static constexpr std::string_view kSource =
      "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYA";

  void SetUp() override {
    db_.Add(subseq::MakeStringSequence("GG" + std::string(kSource) + "GGGGG"));
    query_.elements = Chars(kSource);
    query_.elements[5] = 'W';
    query_.source_seq = 0;
    query_.source_offset = 2;
    spec_ = *FindWorkload("proteins-refnet");
    spec_.eps_range = 1.0;
    spec_.eps_longest = 1.0;
    spec_.eps_nearest_max = 2.0;
    spec_.eps_increment = 1.0;
  }

  static SubsequenceMatch Match(int32_t q_end, int32_t x_end, double d) {
    return SubsequenceMatch{0, subseq::Interval{0, q_end},
                            subseq::Interval{2, x_end}, d};
  }
  static SubsequenceMatch Source(double distance) {
    return Match(41, 43, distance);
  }

  SequenceDatabase<char> db_;
  PlantedQuery<char> query_;
  WorkloadSpec spec_{};
};

TEST_F(CheckAnswerTest, AcceptsTheSourcePair) {
  for (const OpType type : kOpTypes) {
    Answer a;
    a.ok = true;
    if (type == OpType::kRange) {
      a.matches = {Source(1.0)};
    } else {
      a.best = Source(1.0);
    }
    Report report;
    CheckAnswer(db_, query_, type, a, spec_, &report);
    EXPECT_TRUE(report.correct()) << OpName(type);
  }
}

TEST_F(CheckAnswerTest, RejectsAWrongDistance) {
  Answer a;
  a.ok = true;
  a.matches = {Source(0.0)};
  Report report;
  CheckAnswer(db_, query_, OpType::kRange, a, spec_, &report);
  EXPECT_FALSE(report.correct());
}

TEST_F(CheckAnswerTest, RejectsAMissingSource) {
  Answer a;
  a.ok = true;  // no matches although the source is within epsilon
  Report report;
  CheckAnswer(db_, query_, OpType::kRange, a, spec_, &report);
  EXPECT_FALSE(report.correct());
}

TEST_F(CheckAnswerTest, RejectsAShortLongestMatch) {
  Answer a;
  a.ok = true;
  // [0, 40) vs [2, 42) is within epsilon but not the whole query.
  a.best = Match(40, 42, 1.0);
  Report report;
  CheckAnswer(db_, query_, OpType::kLongest, a, spec_, &report);
  EXPECT_FALSE(report.correct());
}

TEST_F(CheckAnswerTest, RejectsAMatchBeyondLambda0) {
  Answer a;
  a.ok = true;
  // |SX| - |SQ| = 44 - 41 > lambda0.
  a.matches = {Source(1.0), Match(41, 46, 4.0)};
  Report report;
  CheckAnswer(db_, query_, OpType::kRange, a, spec_, &report);
  EXPECT_FALSE(report.correct());
}

TEST_F(CheckAnswerTest, RejectsAMatchShorterThanLambda) {
  Answer a;
  a.ok = true;
  a.matches = {Source(1.0), Match(39, 41, 1.0)};
  Report report;
  CheckAnswer(db_, query_, OpType::kRange, a, spec_, &report);
  EXPECT_FALSE(report.correct());
}

TEST_F(CheckAnswerTest, RetiredSourceNeedNotBeFound) {
  const SequenceDatabase<char> retired = db_.Retire(0);
  Answer a;
  a.ok = true;
  Report report;
  CheckAnswer(retired, query_, OpType::kRange, a, spec_, &report);
  EXPECT_TRUE(report.correct());
}

TEST_F(CheckAnswerTest, OtherTypesNeverReportTheTypeIFault) {
  Answer a;
  a.ok = true;
  a.best = Source(1.0);
  Report report;
  EXPECT_FALSE(CheckAnswer(db_, query_, OpType::kLongest, a, spec_, &report));
  EXPECT_TRUE(report.correct());
}

// l = 20: a pair with SX = [19, 61) holds the window at 20 but ends past
// 20 + 2l, and begins after the window at 0 ends its reach.
TEST(OutsideEveryHitRegion, MatchesTheExpansionBounds) {
  EXPECT_FALSE(OutsideEveryHitRegion(0, 40, 100));
  EXPECT_FALSE(OutsideEveryHitRegion(2, 41, 100));
  EXPECT_FALSE(OutsideEveryHitRegion(20, 40, 60));
  EXPECT_TRUE(OutsideEveryHitRegion(19, 42, 100));
  // Longer than 3l: no single window's region can hold it.
  EXPECT_TRUE(OutsideEveryHitRegion(20, 61, 200));
}

TEST(CheckAnswerFault, AMissOutsideEveryHitRegionIsAFailedOperation) {
  const std::string source = "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYAC";  // 42
  SequenceDatabase<char> db;
  db.Add(subseq::MakeStringSequence(std::string(19, 'G') + source +
                                    std::string(39, 'G')));
  PlantedQuery<char> q;
  q.elements = Chars(source);
  q.source_seq = 0;
  q.source_offset = 19;
  WorkloadSpec spec = *FindWorkload("proteins-refnet");
  Answer a;
  a.ok = true;  // the source is within epsilon, but not reported
  Report report;
  EXPECT_TRUE(CheckAnswer(db, q, OpType::kRange, a, spec, &report));
  EXPECT_TRUE(report.correct());
  // The same miss one element later is reachable, so it fails the check.
  q.source_offset = 20;
  db = SequenceDatabase<char>();
  db.Add(subseq::MakeStringSequence(std::string(20, 'G') + source +
                                    std::string(38, 'G')));
  Report strict;
  EXPECT_FALSE(CheckAnswer(db, q, OpType::kRange, a, spec, &strict));
  EXPECT_FALSE(strict.correct());
}

TEST(MutateQuery, StaysWithinTheTypeIEpsilon) {
  subseq::Rng rng(3);
  const std::vector<double> cut(52, 4.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> q = MutateQuery(&rng, cut, 0.02);
    ASSERT_EQ(q.size(), cut.size());
    for (size_t i = 0; i < q.size(); ++i) EXPECT_LE(std::abs(q[i] - cut[i]), 0.02);
    EXPECT_LE(TextbookDtw(q, cut), 2.0);
  }
  const std::vector<char> residues = Chars("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY");
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<char> q = MutateQuery(&rng, residues, 2.0);
    int differing = 0;
    for (size_t i = 0; i < q.size(); ++i) differing += q[i] != residues[i] ? 1 : 0;
    EXPECT_EQ(differing, 2);
    EXPECT_LE(TextbookLevenshtein(q, residues), 2.0);
  }
}

TEST(SameAnswer, ComparesDistancesToo) {
  Answer a;
  a.ok = true;
  a.best = SubsequenceMatch{0, subseq::Interval{0, 4}, subseq::Interval{0, 4}, 1.0};
  Answer b = a;
  EXPECT_TRUE(SameAnswer(a, b));
  b.best->distance = 1.5;
  EXPECT_FALSE(SameAnswer(a, b));
  b.best.reset();
  EXPECT_FALSE(SameAnswer(a, b));
}

}  // namespace
}  // namespace perfbench
