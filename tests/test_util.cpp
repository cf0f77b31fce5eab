// Unit tests for src/util: RNG determinism and distributions, order-
// preserving bit packing, thread buffers, atomic min, tables, options,
// scale presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "util/bitpack.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/scale.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gdiam::util {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, NextDoubleOpenLowExcludesZero) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double_open_low();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Xoshiro256, NextDoubleMeanNearHalf) {
  Xoshiro256 rng(17);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Xoshiro256, BoundedStaysInRange) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_bounded(17), 17u);
  }
}

TEST(Xoshiro256, BoundedZeroReturnsZero) {
  Xoshiro256 rng(19);
  EXPECT_EQ(rng.next_bounded(0), 0u);
}

TEST(Xoshiro256, BoundedCoversAllResidues) {
  Xoshiro256 rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Xoshiro256, BernoulliFrequencyMatchesP) {
  Xoshiro256 rng(31);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Xoshiro256, SplitStreamsAreIndependentAndDeterministic) {
  Xoshiro256 base(101);
  Xoshiro256 s1 = base.split(1);
  Xoshiro256 s2 = base.split(2);
  Xoshiro256 s1again = base.split(1);
  int equal12 = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x1 = s1.next();
    EXPECT_EQ(x1, s1again.next());
    equal12 += (x1 == s2.next());
  }
  EXPECT_EQ(equal12, 0);
}

TEST(Bitpack, FloatOrderBitsMonotone) {
  const float values[] = {0.0f, 1e-30f, 0.5f, 1.0f, 2.0f, 1e10f,
                          std::numeric_limits<float>::infinity()};
  for (std::size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(float_order_bits(values[i]), float_order_bits(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(Bitpack, FloatRoundTrip) {
  for (const float v : {0.0f, 0.25f, 3.5f, 1e20f}) {
    EXPECT_EQ(float_from_order_bits(float_order_bits(v)), v);
  }
}

TEST(Bitpack, DoubleOrderBitsMonotone) {
  const double values[] = {0.0, 1e-300, 0.5, 1.0, 1e100,
                           std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(double_order_bits(values[i]), double_order_bits(values[i + 1]));
  }
}

TEST(Bitpack, DoubleRoundTrip) {
  for (const double v : {0.0, 1.75, 9e99}) {
    EXPECT_EQ(double_from_order_bits(double_order_bits(v)), v);
  }
}

TEST(Bitpack, InfinityConstantsAreMaximal) {
  EXPECT_GT(kInfDoubleBits, double_order_bits(1e308));
  EXPECT_GT(kInfFloatBits, float_order_bits(1e38f));
}

TEST(AtomicFetchMin, LowersValue) {
  std::uint64_t slot = 100;
  EXPECT_TRUE(atomic_fetch_min(slot, 50));
  EXPECT_EQ(slot, 50u);
}

TEST(AtomicFetchMin, RejectsLargerValue) {
  std::uint64_t slot = 10;
  EXPECT_FALSE(atomic_fetch_min(slot, 20));
  EXPECT_EQ(slot, 10u);
}

TEST(AtomicFetchMin, EqualValueIsNoUpdate) {
  std::uint64_t slot = 10;
  EXPECT_FALSE(atomic_fetch_min(slot, 10));
}

TEST(AtomicFetchMin, ConcurrentMinIsGlobalMin) {
  std::uint64_t slot = std::numeric_limits<std::uint64_t>::max();
#pragma omp parallel for
  for (int i = 0; i < 10000; ++i) {
    atomic_fetch_min(slot, static_cast<std::uint64_t>(10000 - i));
  }
  EXPECT_EQ(slot, 1u);
}

TEST(ThreadBuffers, GatherConcatenatesAllThreads) {
  ThreadBuffers<int> buffers;
#pragma omp parallel for
  for (int i = 0; i < 1000; ++i) buffers.local().push_back(i);
  auto all = buffers.gather();
  ASSERT_EQ(all.size(), 1000u);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(all[i], i);
}

TEST(ThreadBuffers, GatherClears) {
  ThreadBuffers<int> buffers;
  buffers.local().push_back(1);
  EXPECT_EQ(buffers.size(), 1u);
  (void)buffers.gather();
  EXPECT_EQ(buffers.size(), 0u);
}

TEST(Table, AlignsAndStoresCells) {
  Table t({"graph", "time", "ratio"});
  t.row().cell("roads").num(1.5, 2).count(1234567);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.at(0, 0), "roads");
  EXPECT_EQ(t.at(0, 1), "1.50");
  EXPECT_EQ(t.at(0, 2), "1,234,567");
}

TEST(Table, SciFormatting) {
  Table t({"x"});
  t.row().sci(123456.0, 2);
  EXPECT_EQ(t.at(0, 0), "1.23e+05");
}

TEST(Table, PrintContainsHeaderAndCells) {
  Table t({"a", "b"});
  t.row().cell("hello").num(2.25, 2);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("hello"), std::string::npos);
  EXPECT_NE(s.find("2.25"), std::string::npos);
}

TEST(Table, AtThrowsOutOfRange) {
  Table t({"a"});
  EXPECT_THROW((void)t.at(0, 0), std::out_of_range);
}

TEST(WithThousands, Formats) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(29166673), "29,166,673");
}

TEST(Options, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--tau=32", "--name=mesh"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("tau", 0), 32);
  EXPECT_EQ(o.get_string("name", ""), "mesh");
}

TEST(Options, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--tau", "64"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("tau", 0), 64);
}

TEST(Options, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  Options o(2, argv);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
}

TEST(Options, PositionalArguments) {
  const char* argv[] = {"prog", "input.gr", "--x=1", "out.bin"};
  Options o(4, argv);
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.gr");
  EXPECT_EQ(o.positional()[1], "out.bin");
}

TEST(Options, FallbacksWhenAbsent) {
  Options o;
  EXPECT_EQ(o.get_int("x", 5), 5);
  EXPECT_DOUBLE_EQ(o.get_double("y", 2.5), 2.5);
  EXPECT_EQ(o.get_string("z", "d"), "d");
}

TEST(Options, GetDouble) {
  const char* argv[] = {"prog", "--delta=0.125"};
  Options o(2, argv);
  EXPECT_DOUBLE_EQ(o.get_double("delta", 0.0), 0.125);
}

TEST(Options, MalformedBoolThrows) {
  const char* argv[] = {"prog", "--flag=maybe"};
  Options o(2, argv);
  EXPECT_THROW((void)o.get_bool("flag", false), std::invalid_argument);
}

TEST(Options, NumericValuesMustParseWhole) {
  const char* argv[] = {"prog", "--tau", "4x", "--delta=0.5junk", "--k=abc",
                        "--big=99999999999999999999", "--ok=7"};
  Options o(7, argv);
  EXPECT_THROW((void)o.get_int("tau", 0), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("delta", 0.0), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("k", 0), std::invalid_argument);
  EXPECT_THROW((void)o.get_uint32("k", 0), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("big", 0), std::invalid_argument);
  EXPECT_EQ(o.get_int("ok", 0), 7);
  std::string what;
  try {
    (void)o.get_int("tau", 0);
  } catch (const OptionError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("--tau"), std::string::npos) << what;
}

TEST(Options, SetInjectsFlag) {
  Options o;
  o.set("tau", "9");
  EXPECT_EQ(o.get_int("tau", 0), 9);
}

TEST(Scale, ParseKnownNames) {
  EXPECT_EQ(parse_scale("ci"), Scale::kCi);
  EXPECT_EQ(parse_scale("small"), Scale::kSmall);
  EXPECT_EQ(parse_scale("paper"), Scale::kPaper);
}

TEST(Scale, ParseUnknownThrows) {
  EXPECT_THROW((void)parse_scale("huge"), std::invalid_argument);
}

TEST(Scale, PickSelectsPreset) {
  EXPECT_EQ(pick(Scale::kCi, 1, 2, 3), 1);
  EXPECT_EQ(pick(Scale::kSmall, 1, 2, 3), 2);
  EXPECT_EQ(pick(Scale::kPaper, 1, 2, 3), 3);
}

TEST(Scale, NamesRoundTrip) {
  for (const Scale s : {Scale::kCi, Scale::kSmall, Scale::kPaper}) {
    EXPECT_EQ(parse_scale(scale_name(s)), s);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
  t.reset();
  EXPECT_LT(t.millis(), 15.0);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(2.5), "2.50 s");
  EXPECT_EQ(format_duration(0.0125), "12.5 ms");
  EXPECT_EQ(format_duration(42e-6), "42.0 us");
}

TEST(Parallel, NumThreadsPositive) { EXPECT_GE(num_threads(), 1); }

TEST(Parallel, SetNumThreadsRoundTrip) {
  const int prev = set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(prev);
  EXPECT_EQ(num_threads(), prev);
}

}  // namespace
}  // namespace gdiam::util
