// Tests for the sweep harness layer: axis expansion, seed derivation,
// filtering, artifact serialization, and the headline determinism
// contract — a parallel sweep's artifacts are byte-identical to a serial
// run's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/artifacts.hpp"
#include "harness/grids.hpp"
#include "harness/sweep.hpp"
#include "util/csv.hpp"

namespace wsched::harness {
namespace {

SweepSpec small_sweep() {
  // A genuine 2x2x2 simulation sweep, sized for test time: tiny cluster,
  // short horizon.
  SweepSpec sweep;
  sweep.base.profile = trace::ksu_profile();
  sweep.base.p = 4;
  sweep.base.duration_s = 1.5;
  sweep.base.warmup_s = 0.25;
  sweep.base.seed = 1999;
  sweep.axes = {
      lambda_axis({80, 120}),
      inv_r_axis({20, 40}),
      scheduler_axis({core::SchedulerKind::kMs, core::SchedulerKind::kFlat}),
  };
  return sweep;
}

TEST(Expand, RowMajorOrderLastAxisFastest) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2}), inv_r_axis({10, 20})};
  const auto points = expand(sweep);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].id, "lambda=1/inv_r=10");
  EXPECT_EQ(points[1].id, "lambda=1/inv_r=20");
  EXPECT_EQ(points[2].id, "lambda=2/inv_r=10");
  EXPECT_EQ(points[3].id, "lambda=2/inv_r=20");
  EXPECT_EQ(points[3].index, 3u);
  EXPECT_DOUBLE_EQ(points[3].spec.lambda, 2.0);
  EXPECT_DOUBLE_EQ(points[3].spec.r, 1.0 / 20.0);
}

TEST(Expand, CoordsComeFromAxes) {
  SweepSpec sweep;
  sweep.axes = {table2_cell_axis({32}, 1), inv_r_axis({20})};
  const auto points = expand(sweep);
  ASSERT_EQ(points.size(), 3u);  // one lambda per (trace) cell at p=32
  ASSERT_EQ(points[0].coords.size(), 4u);
  EXPECT_EQ(points[0].coords[0].first, "p");
  EXPECT_EQ(points[0].coords[1].first, "trace");
  EXPECT_EQ(points[0].coords[1].second, "UCB");
  EXPECT_EQ(points[0].coords[2].first, "lambda");
  EXPECT_EQ(points[0].coords[3].first, "inv_r");
  EXPECT_EQ(points[0].spec.p, 32);
}

TEST(Expand, ReseedAxesGiveDistinctSeeds) {
  const auto points = expand(small_sweep());
  ASSERT_EQ(points.size(), 8u);
  // The scheduler axis must not contribute to the seed: consecutive pairs
  // share one workload...
  for (std::size_t i = 0; i < points.size(); i += 2)
    EXPECT_EQ(points[i].spec.seed, points[i + 1].spec.seed) << i;
  // ...while distinct workload coordinates never collide.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < points.size(); i += 2)
    seeds.insert(points[i].spec.seed);
  EXPECT_EQ(seeds.size(), 4u);
}

TEST(Expand, PointSeedIsInjectiveOverManyIndices) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100000; ++i)
    seeds.insert(point_seed(1999, i));
  EXPECT_EQ(seeds.size(), 100000u);
  // A different base seed permutes to different values.
  EXPECT_NE(point_seed(1, 0), point_seed(2, 0));
}

TEST(Expand, EmptyAxisThrows) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({})};
  EXPECT_THROW(expand(sweep), std::invalid_argument);
}

TEST(Filters, SubstringOrSemantics) {
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {}));
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {"inv_r=10"}));
  EXPECT_TRUE(matches_filters("lambda=1/inv_r=10", {"nope", "lambda=1"}));
  EXPECT_FALSE(matches_filters("lambda=1/inv_r=10", {"lambda=2"}));
}

TEST(Artifacts, CsvAndJsonAreCanonical) {
  ResultRow row;
  row.set("name", "a \"quoted\" label")
      .set("value", 1.5)
      .set("count", 3)
      .set("bad", std::numeric_limits<double>::infinity());
  const std::string csv = csv_string({row});
  EXPECT_EQ(csv,
            "name,value,count,bad\n\"a \"\"quoted\"\" label\",1.5,3,inf\n");
  const std::string json = json_string({row});
  EXPECT_NE(json.find("\"name\":\"a \\\"quoted\\\" label\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
}

TEST(Artifacts, SchemaMismatchThrows) {
  ResultRow a, b;
  a.set("x", 1);
  b.set("y", 1);
  EXPECT_THROW(csv_string({a, b}), std::invalid_argument);
  EXPECT_THROW(json_string({a, b}), std::invalid_argument);
}

TEST(Artifacts, SetOverwritesInPlaceAndMergePreservesNumeric) {
  ResultRow row;
  row.set("a", 1).set("b", "text").set("a", 2);
  ASSERT_EQ(row.fields().size(), 2u);
  EXPECT_EQ(row.fields()[0].name, "a");
  EXPECT_EQ(row.text("a"), "2");
  ResultRow other;
  other.set("c", 2.5);
  row.merge(other);
  EXPECT_TRUE(row.fields()[2].numeric);
  EXPECT_DOUBLE_EQ(row.number("c"), 2.5);
}

// --- the canonical formatter, pinned against printf -----------------------

template <typename... Args>
std::string printf_ref(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

template <typename Append>
std::string appended(Append append, double value) {
  std::string out;
  append(out, value);
  return out;
}

TEST(Format, NumberRule) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // `integral` cases print as %lld, the rest as %.10g.
  struct Case {
    double value;
    bool integral;
    const char* want;
  };
  const Case cases[] = {
      {0.0, true, "0"},
      {-0.0, true, "0"},
      {0.1, false, "0.1"},
      {1.0 / 3.0, false, "0.3333333333"},
      {-2.5, false, "-2.5"},
      {9007199254740992.0, false, "9.007199255e+15"},  // 2^53 is past 1e15
      {1e15 - 1, true, "999999999999999"},
      {-(1e15 - 1), true, "-999999999999999"},
      {1e15, false, "1e+15"},
      {1e300, false, "1e+300"},
      {1e-300, false, "1e-300"},
      {nan, false, "nan"},
      {inf, false, "inf"},
      {-inf, false, "-inf"},
  };
  for (const Case& c : cases) {
    const std::string ref =
        c.integral ? printf_ref("%lld", static_cast<long long>(c.value))
                   : printf_ref("%.10g", c.value);
    EXPECT_EQ(ref, c.want) << c.want;
    EXPECT_EQ(format_number(c.value), c.want);
    EXPECT_EQ(appended(append_number, c.value), c.want);
  }
}

TEST(Format, GeneralAndFixedMatchPrintfAcrossMagnitudes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,  -0.0, 0.00005, 0.00015, 2.5e-5, 1.2,
                                3.4,  1e300, -1e300, 1e-300, nan,   inf,
                                -inf, 12345678901.0};
  for (int exp = -20; exp <= 20; ++exp)
    for (double mantissa : {1.0, 1.5, 3.14159265358979, -7.000049999, 9.99995})
      values.push_back(mantissa * std::pow(10.0, exp));
  for (double v : values) {
    EXPECT_EQ(appended(append_general, v), printf_ref("%.10g", v)) << v;
    EXPECT_EQ(appended(append_fixed4, v), printf_ref("%.4f", v)) << v;
  }
  EXPECT_EQ(appended(append_fixed4, 1.2), "1.2000");
}

TEST(Format, CsvQuoting) {
  struct Case {
    const char* field;
    const char* want;
  };
  const Case cases[] = {
      {"", ""},
      {"plain", "plain"},
      {"a,b", "\"a,b\""},
      {"say \"hi\"", "\"say \"\"hi\"\"\""},
      {"cr\rhere", "\"cr\rhere\""},
      {"lf\nhere", "\"lf\nhere\""},
      {"tab\tstays", "tab\tstays"},
  };
  for (const Case& c : cases) {
    std::string out;
    append_csv_field(out, c.field);
    EXPECT_EQ(out, c.want) << c.field;
  }
  // Quoted fields parse back to the original text.
  std::string line;
  for (const char* field : {"plain", "with,comma", "with \"quote\""}) {
    if (!line.empty()) line += ',';
    append_csv_field(line, field);
  }
  const auto fields = parse_csv_line(line);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with \"quote\"");
}

TEST(Format, JsonEscapesEveryControlByte) {
  for (int b = 0; b < 0x20; ++b) {
    const std::string text(1, static_cast<char>(b));
    const std::string want = b == '\n'   ? "\\n"
                             : b == '\r' ? "\\r"
                             : b == '\t' ? "\\t"
                                         : printf_ref("\\u%04x", b);
    EXPECT_EQ(json_escape(text), want) << b;
  }
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  // DEL and bytes above 0x7f pass through unchanged.
  EXPECT_EQ(json_escape("x\x7f\xc3\xa9y"), "x\x7f\xc3\xa9y");
  std::string out = "[";
  append_json_escaped(out, "tab\there");
  EXPECT_EQ(out, "[tab\\there");
}

TEST(Format, ChunkedWriterOutputIsIndependentOfChunking) {
  // Three chunks' worth of rows: flushed in pieces, the stream sees the
  // same bytes as one string holding them all.
  std::ostringstream streamed;
  std::string whole;
  {
    ChunkedWriter writer(streamed);
    for (int i = 0; whole.size() < 3 * ChunkedWriter::kChunk; ++i) {
      const double value = i / 7.0;
      append_number(writer.buf(), value);
      writer.buf() += '\n';
      writer.poll();
      EXPECT_LT(writer.buf().size(), ChunkedWriter::kChunk);
      append_number(whole, value);
      whole += '\n';
    }
  }
  EXPECT_EQ(streamed.str(), whole);
}

// The tentpole contract: running the same sweep serially and on four
// workers produces byte-identical CSV and JSON artifacts, because each
// point's evaluation depends only on its own GridPoint and rows are
// emitted in grid order.
TEST(RunSweep, ParallelArtifactsAreByteIdenticalToSerial) {
  const SweepSpec sweep = small_sweep();
  SweepOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;

  const SweepRun run1 = run_sweep(sweep, serial, experiment_row);
  const SweepRun run4 = run_sweep(sweep, parallel, experiment_row);

  ASSERT_EQ(run1.rows.size(), 8u);
  EXPECT_EQ(csv_string(run1.rows), csv_string(run4.rows));
  EXPECT_EQ(json_string(run1.rows), json_string(run4.rows));
  // And the artifacts are non-trivial: the stable schema with real data.
  const std::string csv = csv_string(run1.rows);
  EXPECT_NE(csv.find("point,lambda,inv_r,scheduler,"), std::string::npos);
  EXPECT_NE(csv.find("M/S"), std::string::npos);
}

TEST(RunSweep, FiltersSelectSubgrid) {
  SweepOptions options;
  options.jobs = 2;
  options.filters = {"scheduler=Flat"};
  const SweepRun run = run_sweep(small_sweep(), options, experiment_row);
  ASSERT_EQ(run.rows.size(), 4u);
  for (const ResultRow& row : run.rows)
    EXPECT_EQ(row.text("scheduler"), "Flat");
}

TEST(RunSweep, EvalExceptionPropagatesFromWait) {
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2, 3})};
  SweepOptions options;
  options.jobs = 2;
  EXPECT_THROW(run_sweep(sweep, options,
                         [](const GridPoint&) -> ResultRow {
                           throw std::runtime_error("boom");
                         }),
               std::runtime_error);
}

TEST(RunSweep, QuarantineRecordsFailedPointsAndKeepsTheRest) {
  // With quarantine on, a point whose evaluation throws (a guard-tripped
  // runaway configuration, say) lands in SweepRun::failures instead of
  // aborting the sweep; the surviving rows keep grid order and the stable
  // schema.
  SweepSpec sweep;
  sweep.axes = {lambda_axis({1, 2, 3})};
  SweepOptions options;
  options.jobs = 2;
  options.quarantine = true;
  const SweepRun run =
      run_sweep(sweep, options, [](const GridPoint& point) -> ResultRow {
        if (point.id == "lambda=2")
          throw std::runtime_error("engine guard: too many events");
        ResultRow row;
        row.set("ok", 1);
        return row;
      });
  ASSERT_EQ(run.failures.size(), 1u);
  EXPECT_EQ(run.failures[0].index, 1u);
  EXPECT_EQ(run.failures[0].id, "lambda=2");
  EXPECT_EQ(run.failures[0].error, "engine guard: too many events");
  ASSERT_EQ(run.rows.size(), 2u);
  EXPECT_EQ(run.rows[0].text("lambda"), "1");
  EXPECT_EQ(run.rows[1].text("lambda"), "3");
  EXPECT_EQ(run.points.size(), 2u);
}

}  // namespace
}  // namespace wsched::harness
