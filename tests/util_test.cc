#include <algorithm>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace explainti::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, StatusOrValuePath) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusTest, StatusOrErrorPath) {
  StatusOr<int> result = Status::NotFound("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ServingCodesRoundTrip) {
  Status deadline = Status::DeadlineExceeded("request expired in queue");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: request expired in queue");

  Status shed = Status::ResourceExhausted("admission queue full");
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.ToString(), "ResourceExhausted: admission queue full");
}

TEST(StatusDeathTest, StatusOrValueOnErrorAbortsWithStatus) {
  StatusOr<int> result = Status::NotFound("missing checkpoint");
  // value() on an error is a programming bug; it must CHECK-fail with the
  // carried status, not throw an opaque exception.
  EXPECT_DEATH((void)result.value(), "missing checkpoint");
}

TEST(LoggingTest, ConcurrentMessagesStayIntact) {
  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        LOG(WARNING) << "intact[" << t << ":" << i << "]";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::cerr.rdbuf(old_buf);

  // The sink mutex makes each message one atomic line: every captured
  // line carries exactly one marker, never a torn interleaving.
  std::istringstream lines(captured.str());
  std::string line;
  int markers = 0;
  while (std::getline(lines, line)) {
    const size_t first = line.find("intact[");
    if (first == std::string::npos) continue;
    ++markers;
    EXPECT_EQ(first, line.rfind("intact[")) << "torn line: " << line;
    EXPECT_NE(line.find(']', first), std::string::npos);
  }
  EXPECT_EQ(markers, 200);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.Next() != b.Next();
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalHasRoughlyUnitVariance) {
  Rng rng(4);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(StringUtilTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ToLowerAscii) { EXPECT_EQ(ToLower("AbC1"), "abc1"); }

TEST(StringUtilTest, TrimBothEnds) { EXPECT_EQ(Trim("  hi \n"), "hi"); }

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("##sub", "##"));
  EXPECT_FALSE(StartsWith("#sub", "##"));
}

TEST(StringUtilTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(0.94449, 3), "0.944");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
}

TEST(TablePrinterTest, AlignsColumnsAndPads) {
  TablePrinter printer({"a", "long header"});
  printer.AddRow({"xxxx", "y"});
  std::ostringstream os;
  printer.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a    | long header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx | y           |"), std::string::npos);
}

TEST(TablePrinterTest, MissingCellsRenderEmpty) {
  TablePrinter printer({"a", "b"});
  printer.AddRow({"only"});
  std::ostringstream os;
  printer.Print(os);
  EXPECT_NE(os.str().find("| only |"), std::string::npos);
}

TEST(WallTimerTest, ElapsedIsNonNegativeAndMonotonic) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(DeadlineTest, MonotonicNowAdvances) {
  const int64_t t1 = MonotonicNowUs();
  const int64_t t2 = MonotonicNowUs();
  EXPECT_GT(t1, 0);
  EXPECT_GE(t2, t1);
}

TEST(DeadlineTest, DeadlineAfterUsOffsetsFromNow) {
  const int64_t before = MonotonicNowUs();
  const int64_t deadline = DeadlineAfterUs(1'000'000);
  EXPECT_GE(deadline, before + 1'000'000);
  // An in-the-future deadline is not expired; one in the past is.
  EXPECT_FALSE(DeadlineExpired(deadline));
  EXPECT_TRUE(DeadlineExpired(before - 1));
}

TEST(DeadlineTest, NonPositiveTimeoutMeansNoDeadline) {
  EXPECT_EQ(DeadlineAfterUs(0), kNoDeadline);
  EXPECT_EQ(DeadlineAfterUs(-5), kNoDeadline);
  // kNoDeadline never expires, even against an arbitrarily large now.
  EXPECT_FALSE(DeadlineExpired(kNoDeadline, kNoDeadline - 1));
  EXPECT_FALSE(DeadlineExpired(kNoDeadline));
}

TEST(DeadlineTest, HugeTimeoutSaturatesToNoDeadlineInsteadOfWrapping) {
  // now + timeout would overflow int64 for these; a wrap would produce a
  // deadline in the distant past and instantly expire every request.
  EXPECT_EQ(DeadlineAfterUs(kNoDeadline), kNoDeadline);
  EXPECT_EQ(DeadlineAfterUs(kNoDeadline - 1), kNoDeadline);
  const int64_t saturated = DeadlineAfterUs(kNoDeadline - MonotonicNowUs());
  EXPECT_EQ(saturated, kNoDeadline);
  EXPECT_FALSE(DeadlineExpired(saturated));
}

TEST(DeadlineTest, LargeFiniteTimeoutStaysFiniteAndUnexpired) {
  // A century in microseconds: far away, but nowhere near overflow —
  // must NOT saturate (a finite requested deadline stays finite).
  const int64_t century_us = 100LL * 365 * 24 * 3600 * 1'000'000;
  const int64_t deadline = DeadlineAfterUs(century_us);
  EXPECT_NE(deadline, kNoDeadline);
  EXPECT_GT(deadline, MonotonicNowUs());
  EXPECT_FALSE(DeadlineExpired(deadline));
}

// -- Hashing ----------------------------------------------------------------

// Regression pin for the deduplicated token-feature hash: the legacy
// basis (the standard FNV offset basis missing its last decimal digit)
// is load-bearing — feature extractors bucket tokens by hash % dim, so
// any change to the constant, the prime, or the byte order silently
// remaps every bag-of-words feature. These values were computed from the
// original hand-rolled HashToken copies in baselines/column_features.cc
// and eval/sufficiency.cc before they were unified onto util/hash.h.
TEST(HashTest, TokenFeatureHashValuesArePinned) {
  EXPECT_EQ(kFnvLegacyTokenBasis, 1469598103934665603ULL);
  EXPECT_EQ(HashTokenFeature(""), 1469598103934665603ULL);
  EXPECT_EQ(HashTokenFeature("table"), 13393877952257101349ULL);
  EXPECT_EQ(HashTokenFeature("column"), 1316202627445698569ULL);
  EXPECT_EQ(HashTokenFeature("year"), 6985392534289057094ULL);
  EXPECT_EQ(HashTokenFeature("2019"), 10370843403781473091ULL);
  EXPECT_EQ(HashTokenFeature("header_row"), 11507890926133322981ULL);
  // Bucketing at a typical feature dim, as the extractors consume it.
  EXPECT_EQ(HashTokenFeature("table") % 512, 37u);
  EXPECT_EQ(HashTokenFeature("column") % 512, 9u);
}

// The legacy basis is distinct from the content-hash basis used for
// serving-cache keys; the two must never be merged "for cleanliness".
TEST(HashTest, LegacyBasisDiffersFromStandardFnvBasis) {
  EXPECT_NE(kFnvLegacyTokenBasis, kFnv64OffsetBasis);
  EXPECT_NE(HashTokenFeature("table"),
            HashBytes("table", 5, kFnv64OffsetBasis));
}

}  // namespace
}  // namespace explainti::util
