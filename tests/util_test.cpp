// Unit tests for util: RNG streams and distributions, online statistics,
// tables, CSV, CLI parsing, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace wsched {
namespace {

TEST(Time, RoundTripSeconds) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(-3.0), 0) << "negative durations clamp to zero";
}

TEST(Time, SubNanosecondRounding) {
  EXPECT_EQ(from_seconds(1.4e-9), 1);
  EXPECT_EQ(from_seconds(0.6e-9), 1);
  EXPECT_EQ(from_seconds(0.4e-9), 0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123, 0), b(123, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SeedsDiffer) {
  Rng a(1, 0), b(2, 0);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_int(17), 17u);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(17);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.uniform_int(8)];
  for (int c : counts) EXPECT_GT(c, 800);  // expect ~1000 each
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMeanParameterization) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 400000; ++i)
    stats.add(rng.lognormal_mean(100.0, 1.0));
  EXPECT_NEAR(stats.mean(), 100.0, 3.0);
}

TEST(Rng, BoundedParetoRange) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.1, 1.0, 1000.0);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Rng, BernoulliFraction) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMean) {
  Rng rng(43);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RunningStats, Empty) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(47);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10, 3);
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Ewma, FirstSampleExact) {
  Ewma e(0.1);
  EXPECT_FALSE(e.primed());
  e.add(42.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  e.add(0.0);
  for (int i = 0; i < 200; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(PercentileSampler, ExactWhenUnderCapacity) {
  PercentileSampler sampler(1000);
  for (int i = 1; i <= 100; ++i) sampler.add(i);
  EXPECT_NEAR(sampler.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(sampler.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(sampler.percentile(0.5), 50.5, 1e-9);
}

TEST(PercentileSampler, ReservoirApproximation) {
  PercentileSampler sampler(4096);
  Rng rng(53);
  for (int i = 0; i < 100000; ++i) sampler.add(rng.uniform());
  EXPECT_NEAR(sampler.percentile(0.9), 0.9, 0.03);
  EXPECT_EQ(sampler.count(), 100000u);
}

TEST(Histogram, Binning) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(9.999);
  h.add(10.0);
  h.add(5.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_high(5), 6.0);
}

TEST(Histogram, AsciiNonEmpty) {
  Histogram h(0.0, 4.0, 4);
  for (int i = 0; i < 10; ++i) h.add(1.5);
  const std::string art = h.ascii();
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(20.25, 2);
  const std::string out = t.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("20.25"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CellAccess) {
  Table t({"a", "b"});
  t.row().cell(static_cast<long long>(7)).cell_percent(0.683);
  EXPECT_EQ(t.at(0, 0), "7");
  EXPECT_EQ(t.at(0, 1), "68.3%");
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::out_of_range);
}

TEST(Table, NoHeadersThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(0.68), "68.0%");
  EXPECT_EQ(percent(0.125, 2), "12.50%");
  EXPECT_EQ(fixed(3.14159, 3), "3.142");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(Cli, FlagsAndPositional) {
  // Note: a bare flag followed by a non-flag token consumes it as a value
  // (--beta 7); a trailing bare flag is boolean.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7",
                        "input.txt", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BoolValues) {
  const char* argv[] = {"prog", "--on=true", "--off=0"};
  CliArgs args(3, argv);
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_FALSE(args.get_bool("off", true));
}

TEST(Cli, RepeatedFlagsAccumulate) {
  const char* argv[] = {"prog", "--filter", "trace=UCB", "--filter=p=32",
                        "--filter", "lambda=1000"};
  CliArgs args(6, argv);
  const auto all = args.get_all("filter");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "trace=UCB");
  EXPECT_EQ(all[1], "p=32");
  EXPECT_EQ(all[2], "lambda=1000");
  // Scalar getters see the last occurrence.
  EXPECT_EQ(args.get("filter", ""), "lambda=1000");
}

TEST(Cli, RepeatedScalarLastWins) {
  const char* argv[] = {"prog", "--jobs", "2", "--jobs=8"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("jobs", 0), 8);
  EXPECT_EQ(args.get_all("jobs").size(), 2u);
}

TEST(Cli, EqualsInsideValuePreserved) {
  // Only the first '=' splits: the value itself may contain '='.
  const char* argv[] = {"prog", "--filter=scheduler=M/S"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get("filter", ""), "scheduler=M/S");
}

TEST(Cli, EmptyValueAfterEquals) {
  const char* argv[] = {"prog", "--out="};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.has("out"));
  EXPECT_EQ(args.get("out", "fallback"), "");
}

TEST(Cli, EmptyFlagNameThrows) {
  const char* argv[] = {"prog", "--=value"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(Cli, GetAllAbsentIsEmpty) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_TRUE(args.get_all("filter").empty());
}

TEST(Cli, BareDoubleDashThrows) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(Cli, FlagNamesEnumerated) {
  const char* argv[] = {"prog", "--b=2", "--a=1"};
  CliArgs args(3, argv);
  const auto names = args.flag_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

TEST(EnvFlag, ParsesAndFallsBack) {
  ::setenv("WSCHED_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(env_flag("WSCHED_TEST_FLAG", false));
  ::setenv("WSCHED_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("WSCHED_TEST_FLAG", true));
  ::unsetenv("WSCHED_TEST_FLAG");
  EXPECT_TRUE(env_flag("WSCHED_TEST_FLAG", true));

  ::setenv("WSCHED_TEST_NUM", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("WSCHED_TEST_NUM", 0.0), 2.5);
  ::setenv("WSCHED_TEST_NUM", "junk", 1);
  EXPECT_DOUBLE_EQ(env_double("WSCHED_TEST_NUM", 7.0), 7.0);
  ::unsetenv("WSCHED_TEST_NUM");
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(61);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, SplitMixIsDeterministic) {
  std::uint64_t a = 42, b = 42;
  const std::uint64_t first_a = splitmix64(a);
  const std::uint64_t first_b = splitmix64(b);
  EXPECT_EQ(first_a, first_b);
  EXPECT_EQ(a, b) << "state advances identically";
  const std::uint64_t second_a = splitmix64(a);
  EXPECT_NE(first_a, second_a) << "successive outputs differ";
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelFor) {
  ThreadPool pool(3);
  std::vector<int> data(500, 0);
  parallel_for(pool, data.size(), [&](std::size_t i) {
    data[i] = static_cast<int>(i) * 2;
  });
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], static_cast<int>(i) * 2);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, TaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 16; ++i) pool.submit([&] { ++counter; });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failing task did not cancel the rest of the batch.
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, FirstExceptionWinsAndPoolStaysUsable) {
  ThreadPool pool(1);  // single worker: deterministic task order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The error slot was cleared: the pool accepts and runs new work.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace wsched
