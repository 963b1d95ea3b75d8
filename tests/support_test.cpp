// Tests for the support substrate: RNG determinism and distributions,
// running statistics, percentiles, slope fitting, table rendering, checks,
// and the JSON writer's escaping, number and comma policies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>

#include "asyncit/support/check.hpp"
#include "asyncit/support/json.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/stats.hpp"
#include "asyncit/support/table.hpp"
#include "asyncit/support/timer.hpp"

namespace asyncit {
namespace {

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(ASYNCIT_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(ASYNCIT_CHECK(1 == 1));
  try {
    ASYNCIT_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(29);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (child1.next() == child2.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, ExactOrderStatistics) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(LsSlope, RecoversLinearTrend) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  EXPECT_NEAR(ls_slope(x, y), 3.0, 1e-12);
}

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string r = t.render();
  EXPECT_NE(r.find("name"), std::string::npos);
  EXPECT_NE(r.find("alpha"), std::string::npos);
  EXPECT_NE(r.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::sci(0.000123, 2), "1.23e-04");
}

TEST(WallTimer, MeasuresNonnegativeTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds());
}

std::string json_of(double v) {
  std::string out;
  JsonWriter(out).value(v);
  return out;
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  std::string out;
  JsonWriter(out).value(std::string("a\"b\\c\nd\x01" "e"));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\u000ad\\u0001e\"");
  out.clear();
  JsonWriter(out).begin_object().key("k\"\t").value("").end_object();
  EXPECT_EQ(out, "{\"k\\\"\\u0009\":\"\"}");
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  EXPECT_EQ(json_of(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_of(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_of(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, IntegersAreExact) {
  std::string out;
  JsonWriter w(out);
  w.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::uint16_t{7})
      .value(-3)
      .end_array();
  EXPECT_EQ(out, "[18446744073709551615,-9223372036854775808,7,-3]");
}

TEST(JsonWriter, DoublesAreShortestRoundTrip) {
  EXPECT_EQ(json_of(0.1), "0.1");
  EXPECT_EQ(json_of(1.5), "1.5");
  EXPECT_EQ(json_of(0.0), "0");
  // Bit-exact round trip through strtod over a spread of magnitudes,
  // signs and mantissas, subnormals and the extremes included.
  Rng rng(2024);
  std::vector<double> sweep = {std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::denorm_min(),
                               -0.0, 1.0 / 3.0, 12345678.901, 1e23};
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = rng.next();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) sweep.push_back(v);
    sweep.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : sweep) {
    const std::string text = json_of(v);
    const double back = std::strtod(text.c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
  }
}

TEST(JsonWriter, PlacesCommasInNestedContainers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .key("a").value(1)
      .key("b").begin_array().end_array()
      .key("c").begin_array()
      .value(true)
      .begin_object().end_object()
      .begin_array().value(2).value(3).end_array()
      .null()
      .end_array()
      .key("d").begin_object().key("e").value(false).key("f").null()
      .end_object()
      .end_object();
  EXPECT_EQ(out,
            "{\"a\":1,\"b\":[],\"c\":[true,{},[2,3],null],"
            "\"d\":{\"e\":false,\"f\":null}}");
}

TEST(JsonWriter, OutputParsesWithPython) {
  if (std::system("python3 -c 'pass' >/dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not on PATH";
  std::string out;
  JsonWriter w(out);
  w.begin_object()
      .key("text").value(std::string("q\"b\\n\n\x01\x1f end"))
      .key("big").value(std::numeric_limits<std::uint64_t>::max())
      .key("small").value(std::numeric_limits<std::int64_t>::min())
      .key("tenth").value(0.1)
      .key("inf").value(std::numeric_limits<double>::infinity())
      .key("list").begin_array().value(1e-300).value(-2.5e300).end_array()
      .end_object();
  const std::string path = ::testing::TempDir() + "json_writer.json";
  const std::string script = ::testing::TempDir() + "json_writer_check.py";
  std::ofstream(path) << out;
  std::ofstream(script) << R"(import json, sys
d = json.load(open(sys.argv[1]))
assert d["text"] == "q\"b\\n\n\x01\x1f end", d
assert d["big"] == 2**64 - 1 and d["small"] == -2**63, d
assert d["tenth"] == 0.1 and d["inf"] is None, d
assert d["list"] == [1e-300, -2.5e300], d
)";
  EXPECT_EQ(std::system(("python3 " + script + " " + path).c_str()), 0)
      << out;
  std::remove(script.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asyncit
