//===- tests/test_support.cpp - support library unit tests ----------------==//

#include "support/ArgParse.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <thread>
#include <vector>

using namespace evm;

//===----------------------------------------------------------------------===//
// Error / ErrorOr
//===----------------------------------------------------------------------===//

TEST(ErrorOrTest, SuccessHoldsValue) {
  ErrorOr<int> V(42);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(*V, 42);
}

TEST(ErrorOrTest, FailureHoldsError) {
  ErrorOr<int> V(Error("boom"));
  ASSERT_FALSE(static_cast<bool>(V));
  EXPECT_EQ(V.getError().message(), "boom");
}

TEST(ErrorOrTest, TakeValueMovesOut) {
  ErrorOr<std::string> V(std::string("payload"));
  std::string S = V.takeValue();
  EXPECT_EQ(S, "payload");
}

TEST(ErrorOrTest, MakeErrorFormats) {
  Error E = makeError("bad %s at %d", "token", 7);
  EXPECT_EQ(E.message(), "bad token at 7");
}

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, BasicSubstitution) {
  EXPECT_EQ(formatString("%d-%s", 5, "x"), "5-x");
}

TEST(FormatTest, EmptyFormat) { EXPECT_EQ(formatString("%s", ""), ""); }

TEST(FormatTest, LongOutput) {
  std::string Long(5000, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 5000u);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  auto Pieces = splitString("a::b", ':');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "");
  EXPECT_EQ(Pieces[2], "b");
}

TEST(StringUtilsTest, SplitSingle) {
  auto Pieces = splitString("abc", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "abc");
}

TEST(StringUtilsTest, SplitWhitespaceDropsEmpty) {
  auto Pieces = splitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[2], "c");
}

TEST(StringUtilsTest, TokenizeCommandLineQuotes) {
  auto Tokens = tokenizeCommandLine("prog -n 3 \"two words\" tail");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[3], "two words");
}

TEST(StringUtilsTest, TokenizeEmptyLine) {
  EXPECT_TRUE(tokenizeCommandLine("   ").empty());
}

TEST(StringUtilsTest, TrimBothEnds) {
  EXPECT_EQ(trimString("  x y \t"), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("option", "opt"));
  EXPECT_FALSE(startsWith("op", "opt"));
  EXPECT_TRUE(endsWith("label:", ":"));
  EXPECT_FALSE(endsWith("", ":"));
}

TEST(StringUtilsTest, ParseIntegerStrict) {
  EXPECT_EQ(parseInteger("42").value(), 42);
  EXPECT_EQ(parseInteger("-7").value(), -7);
  EXPECT_FALSE(parseInteger("42x").has_value());
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("4.2").has_value());
}

TEST(StringUtilsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
  EXPECT_FALSE(parseDouble("2.5z").has_value());
}

TEST(StringUtilsTest, JoinStrings) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, Deterministic) {
  Rng A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(RngTest, IntRangeInclusive) {
  Rng R(3);
  bool SawLow = false, SawHigh = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInt(2, 5);
    EXPECT_GE(V, 2);
    EXPECT_LE(V, 5);
    SawLow |= V == 2;
    SawHigh |= V == 5;
  }
  EXPECT_TRUE(SawLow);
  EXPECT_TRUE(SawHigh);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(9);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng R(5);
  std::vector<int> V = {1, 2, 3, 4, 5, 6};
  auto Original = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Original);
}

TEST(RngTest, ForkIndependentStream) {
  Rng A(11);
  Rng Child = A.fork();
  EXPECT_NE(A.next(), Child.next());
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanAndStddev) {
  std::vector<double> S = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(S), 2.5);
  EXPECT_NEAR(stddev(S), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(StatisticsTest, QuantileInterpolates) {
  std::vector<double> S = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(S, 0.0), 10);
  EXPECT_DOUBLE_EQ(quantile(S, 1.0), 40);
  EXPECT_DOUBLE_EQ(quantile(S, 0.5), 25);
  EXPECT_DOUBLE_EQ(median(S), 25);
}

TEST(StatisticsTest, QuantileSingleSample) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.3), 7.0);
}

TEST(StatisticsTest, Geomean) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(StatisticsTest, BoxStatsFiveNumbers) {
  std::vector<double> S;
  for (int I = 1; I <= 101; ++I)
    S.push_back(I);
  BoxStats B = computeBoxStats(S);
  EXPECT_DOUBLE_EQ(B.Min, 1);
  EXPECT_DOUBLE_EQ(B.Median, 51);
  EXPECT_DOUBLE_EQ(B.Max, 101);
  EXPECT_DOUBLE_EQ(B.Q25, 26);
  EXPECT_DOUBLE_EQ(B.Q75, 76);
  EXPECT_EQ(B.Count, 101u);
}

TEST(StatisticsTest, PearsonPerfectCorrelation) {
  std::vector<double> X = {1, 2, 3}, Y = {2, 4, 6};
  EXPECT_NEAR(pearsonCorrelation(X, Y), 1.0, 1e-12);
  std::vector<double> Z = {6, 4, 2};
  EXPECT_NEAR(pearsonCorrelation(X, Z), -1.0, 1e-12);
}

TEST(StatisticsTest, PearsonNoVariance) {
  std::vector<double> X = {1, 1, 1}, Y = {2, 4, 6};
  EXPECT_DOUBLE_EQ(pearsonCorrelation(X, Y), 0.0);
}

//===----------------------------------------------------------------------===//
// TextTable
//===----------------------------------------------------------------------===//

TEST(TableTest, AlignsColumns) {
  TextTable T({"name", "v"});
  T.beginRow();
  T.addCell("long-name");
  T.addCell(int64_t{7});
  std::string Out = T.render();
  EXPECT_NE(Out.find("long-name  7"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
}

TEST(TableTest, NumericFormatting) {
  TextTable T({"x"});
  T.beginRow();
  T.addCell(1.23456, 2);
  EXPECT_NE(T.render().find("1.23"), std::string::npos);
}

TEST(TableTest, BoxLineMarkers) {
  std::string Line = renderBoxLine(1.0, 1.2, 1.5, 1.8, 2.0, 1.0, 2.0, 41);
  EXPECT_EQ(Line.size(), 41u);
  EXPECT_EQ(Line.front(), '|');
  EXPECT_EQ(Line.back(), '|');
  EXPECT_NE(Line.find('M'), std::string::npos);
  EXPECT_NE(Line.find('='), std::string::npos);
}

TEST(TableTest, BoxLineClampsOutOfAxis) {
  std::string Line = renderBoxLine(0.5, 0.9, 1.0, 1.1, 3.0, 1.0, 2.0, 21);
  EXPECT_EQ(Line.size(), 21u); // out-of-range values clamp, no crash
}

//===----------------------------------------------------------------------===//
// MetricsRegistry thread safety
//===----------------------------------------------------------------------===//

TEST(MetricsTest, ConcurrentProducersLoseNoCounts) {
  // The fleet shares one registry across tenant threads; every add from
  // every thread must land.  Runs under the TSan lane too.
  MetricsRegistry Reg;
  constexpr int Threads = 4, PerThread = 2000;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&Reg, T] {
      for (int I = 0; I != PerThread; ++I) {
        Reg.add("shared.counter");
        Reg.add("per.thread." + std::to_string(T));
        Reg.observe("shared.histogram", I);
        if ((I & 127) == 0)
          Reg.setGauge("last.writer", T);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter("shared.counter"), uint64_t(Threads) * PerThread);
  for (int T = 0; T != Threads; ++T)
    EXPECT_EQ(S.counter("per.thread." + std::to_string(T)),
              uint64_t(PerThread));
  const MetricValue *H = S.find("shared.histogram");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Box.Count, size_t(Threads) * PerThread);
  double G = S.gauge("last.writer", -1);
  EXPECT_GE(G, 0);
  EXPECT_LT(G, Threads);
}

TEST(MetricsTest, HistogramWithNoSamplesIsAbsent) {
  // observe() is the only way to create a histogram, so a registry that
  // never observed anything must not synthesize an empty one (whose
  // percentiles would be undefined).
  MetricsRegistry Reg;
  Reg.add("unrelated.counter");
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.find("lat"), nullptr);
  EXPECT_NE(S.renderJson().find("\"metrics\":["), std::string::npos);
}

TEST(MetricsTest, HistogramSingleSamplePercentiles) {
  MetricsRegistry Reg;
  Reg.observe("lat", 42.0);
  MetricsSnapshot S = Reg.snapshot();
  const MetricValue *H = S.find("lat");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Box.Count, 1u);
  EXPECT_EQ(H->Box.Min, 42.0);
  EXPECT_EQ(H->Box.Max, 42.0);
  EXPECT_EQ(H->P50, 42.0);
  EXPECT_EQ(H->P90, 42.0);
  EXPECT_EQ(H->P99, 42.0);
}

TEST(MetricsTest, HistogramAllIdenticalSamples) {
  MetricsRegistry Reg;
  for (int I = 0; I != 10; ++I)
    Reg.observe("lat", 7.0);
  MetricsSnapshot S = Reg.snapshot();
  const MetricValue *H = S.find("lat");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Box.Q25, 7.0);
  EXPECT_EQ(H->Box.Median, 7.0);
  EXPECT_EQ(H->Box.Q75, 7.0);
  EXPECT_EQ(H->P99, 7.0);
  EXPECT_EQ(H->Sum, 70.0);
}

TEST(MetricsTest, HistogramP99OnTwoSamplesInterpolates) {
  // Linear interpolation at position 0.99 * (n - 1): between the two
  // samples, almost all the way to the larger one — never out of range,
  // never a divide-by-zero.
  MetricsRegistry Reg;
  Reg.observe("lat", 10.0);
  Reg.observe("lat", 20.0);
  MetricsSnapshot S = Reg.snapshot();
  const MetricValue *H = S.find("lat");
  ASSERT_NE(H, nullptr);
  EXPECT_NEAR(H->P99, 19.9, 1e-9);
  EXPECT_NEAR(H->P90, 19.0, 1e-9);
  EXPECT_EQ(H->P50, 15.0);
  EXPECT_LE(H->P99, H->Box.Max);
}

TEST(MetricsTest, SnapshotDuringProductionIsConsistent) {
  // Snapshots taken mid-flight see a point-in-time state: the histogram
  // count and the counter can differ (they are separate metrics) but each
  // individually is a valid prefix, and snapshotting never tears.
  MetricsRegistry Reg;
  constexpr uint64_t Produced = 10000;
  std::thread Producer([&] {
    for (uint64_t I = 0; I != Produced; ++I) {
      Reg.add("produced");
      Reg.observe("samples", I + 1);
    }
  });
  for (int I = 0; I != 50; ++I) {
    MetricsSnapshot S = Reg.snapshot();
    if (const MetricValue *H = S.find("samples")) {
      EXPECT_GT(H->Box.Count, 0u); // summarized without tearing
    }
    EXPECT_LE(S.counter("produced"), Produced);
  }
  Producer.join();
  EXPECT_EQ(Reg.snapshot().counter("produced"), Produced);
}

//===----------------------------------------------------------------------===//
// ArgParse (the shared --opt=V / --opt V matcher and the exit-code
// contract every tool in the repo documents)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a mutable argv from string literals (matchValueFlag consumes
/// the next token in the two-token spelling, so it needs real argv).
struct FakeArgv {
  std::vector<std::string> Storage;
  std::vector<char *> Ptrs;
  explicit FakeArgv(std::initializer_list<const char *> Args) {
    for (const char *A : Args)
      Storage.emplace_back(A);
    for (std::string &S : Storage)
      Ptrs.push_back(S.data());
  }
  int argc() const { return static_cast<int>(Ptrs.size()); }
  char **argv() { return Ptrs.data(); }
};

} // namespace

TEST(ArgParseTest, MatchesEqualsForm) {
  FakeArgv A({"tool", "--seed=42"});
  int I = 1;
  std::string Val;
  bool HasVal = false;
  ASSERT_TRUE(matchValueFlag(A.Storage[1], "--seed", A.argc(), A.argv(), I,
                             Val, HasVal));
  EXPECT_TRUE(HasVal);
  EXPECT_EQ(Val, "42");
  EXPECT_EQ(I, 1); // equals form consumes nothing extra
}

TEST(ArgParseTest, MatchesTwoTokenForm) {
  FakeArgv A({"tool", "--seed", "42", "extra"});
  int I = 1;
  std::string Val;
  bool HasVal = false;
  ASSERT_TRUE(matchValueFlag(A.Storage[1], "--seed", A.argc(), A.argv(), I,
                             Val, HasVal));
  EXPECT_TRUE(HasVal);
  EXPECT_EQ(Val, "42");
  EXPECT_EQ(I, 2); // consumed the value token
}

TEST(ArgParseTest, TrailingFlagReportsMissingValue) {
  FakeArgv A({"tool", "--seed"});
  int I = 1;
  std::string Val;
  bool HasVal = true;
  ASSERT_TRUE(matchValueFlag(A.Storage[1], "--seed", A.argc(), A.argv(), I,
                             Val, HasVal));
  EXPECT_FALSE(HasVal); // --seed at argv end: matched, but no value
}

TEST(ArgParseTest, DoesNotMatchOtherFlagsOrPrefixes) {
  FakeArgv A({"tool", "--seeds=1", "--seed"});
  int I = 1;
  std::string Val;
  bool HasVal = false;
  // "--seeds=1" must not match "--seed" (prefix confusion).
  EXPECT_FALSE(matchValueFlag(A.Storage[1], "--seed", A.argc(), A.argv(), I,
                              Val, HasVal));
  EXPECT_FALSE(matchValueFlag(A.Storage[1], "--lanes", A.argc(), A.argv(), I,
                              Val, HasVal));
}

TEST(ArgParseTest, EqualsFormMayCarryEmptyValue) {
  // `--out=` is matched with HasVal=true and an empty string; it is the
  // per-type parsers' job to reject it (parseStringOption does).
  FakeArgv A({"tool", "--out="});
  int I = 1;
  std::string Val = "sentinel";
  bool HasVal = false;
  ASSERT_TRUE(matchValueFlag(A.Storage[1], "--out", A.argc(), A.argv(), I,
                             Val, HasVal));
  EXPECT_TRUE(HasVal);
  EXPECT_TRUE(Val.empty());
  std::string Dest;
  EXPECT_FALSE(parseStringOption("--out", Val, HasVal, "a file", Dest));
}

TEST(ArgParseTest, ParseIntOptionEnforcesBoundAndSyntax) {
  int64_t Dest = -1;
  EXPECT_TRUE(parseIntOption("--lanes", "8", true, 1, Dest));
  EXPECT_EQ(Dest, 8);
  Dest = -1;
  EXPECT_FALSE(parseIntOption("--lanes", "0", true, 1, Dest)); // below Min
  EXPECT_FALSE(parseIntOption("--lanes", "eight", true, 1, Dest));
  EXPECT_FALSE(parseIntOption("--lanes", "", false, 1, Dest)); // missing
  EXPECT_EQ(Dest, -1); // failures never write through
}

TEST(ArgParseTest, ParseStringOptionRequiresNonEmpty) {
  std::string Dest;
  EXPECT_TRUE(parseStringOption("--socket", "/tmp/s", true, "a path", Dest));
  EXPECT_EQ(Dest, "/tmp/s");
  EXPECT_FALSE(parseStringOption("--socket", "", true, "a path", Dest));
  EXPECT_FALSE(parseStringOption("--socket", "x", false, "a path", Dest));
  EXPECT_EQ(Dest, "/tmp/s"); // failures never write through
}

TEST(ArgParseTest, ExitCodeContractIsStable) {
  // The 0/1/2/3 contract is documented in every tool's usage text; these
  // values are load-bearing for scripts (run_all.sh, fleet-smoke.sh).
  EXPECT_EQ(ExitSuccess, 0);
  EXPECT_EQ(ExitFailure, 1);
  EXPECT_EQ(ExitUsage, 2);
  EXPECT_EQ(ExitIo, 3);
}
