// Tests for the trace layer: the SPECweb96 file set, the Table 1 profiles,
// the synthetic generator's calibration, interval rescaling, and CSV IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "trace/fileset.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wsched::trace {
namespace {

TEST(FileSet, FileSetLayout) {
  // SPECweb96's working set is 4 size classes x 9 files = 36 files (the
  // paper's "40 representative files" rounds this).
  const SpecWebFileSet files;
  EXPECT_EQ(files.count(), 36);
  int per_class[4] = {0, 0, 0, 0};
  for (int i = 0; i < files.count(); ++i)
    ++per_class[files.file(i).size_class];
  for (int c = 0; c < 4; ++c) EXPECT_EQ(per_class[c], 9);
}

TEST(FileSet, SizesSpanFourDecades) {
  const SpecWebFileSet files;
  EXPECT_EQ(files.file(0).size_bytes, 102u);  // 0.1 KB
  EXPECT_NEAR(files.file(files.count() - 1).size_bytes, 921600, 10);
}

TEST(FileSet, ClosestFileExactAndBetween) {
  const SpecWebFileSet files;
  // Exact size returns that file.
  const int idx = files.closest_file(files.file(5).size_bytes);
  EXPECT_EQ(idx, 5);
  // A size way above everything returns the largest file.
  const int top = files.closest_file(100'000'000);
  EXPECT_EQ(files.file(top).size_bytes,
            files.file(files.count() - 1).size_bytes);
  // A size below everything returns the smallest.
  const int bottom = files.closest_file(1);
  EXPECT_EQ(files.file(bottom).size_bytes, files.file(0).size_bytes);
}

TEST(FileSet, ClosestFileMatchesLinearScan) {
  // The lookup must agree, size for size, with the replay rule written
  // out as a scan: the first file (the smaller one on a tie) at the least
  // distance.
  const SpecWebFileSet files;
  const auto scan = [&](std::uint32_t size) {
    int best = 0;
    std::uint64_t best_delta = UINT64_MAX;
    for (int i = 0; i < files.count(); ++i) {
      const std::uint32_t file = files.file(i).size_bytes;
      const std::uint64_t delta = size > file ? size - file : file - size;
      if (delta < best_delta) {
        best_delta = delta;
        best = i;
      }
    }
    return best;
  };
  int mismatches = 0;
  for (std::uint32_t size = 0; size <= 4'000'000; ++size)
    mismatches += files.closest_file(size) != scan(size);
  for (const std::uint32_t size : {UINT32_MAX - 1, UINT32_MAX})
    mismatches += files.closest_file(size) != scan(size);
  EXPECT_EQ(mismatches, 0);
}

TEST(FileSet, SampleFollowsClassMix) {
  const SpecWebFileSet files;
  Rng rng(99);
  int per_class[4] = {0, 0, 0, 0};
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    ++per_class[files.file(files.sample(rng)).size_class];
  EXPECT_NEAR(per_class[0] / double(n), 0.35, 0.01);
  EXPECT_NEAR(per_class[1] / double(n), 0.50, 0.01);
  EXPECT_NEAR(per_class[2] / double(n), 0.14, 0.01);
  EXPECT_NEAR(per_class[3] / double(n), 0.01, 0.005);
}

TEST(Profiles, Table1Characteristics) {
  // The numbers printed in Table 1 of the paper.
  const WorkloadProfile dec = dec_profile();
  EXPECT_NEAR(dec.cgi_fraction, 0.087, 1e-9);
  EXPECT_NEAR(dec.native_interval_s, 0.09, 1e-9);
  const WorkloadProfile ucb = ucb_profile();
  EXPECT_NEAR(ucb.cgi_fraction, 0.112, 1e-9);
  EXPECT_NEAR(ucb.html_mean_bytes, 7519, 1e-9);
  EXPECT_NEAR(ucb.cgi_mean_bytes, 4591, 1e-9);
  const WorkloadProfile ksu = ksu_profile();
  EXPECT_NEAR(ksu.cgi_fraction, 0.291, 1e-9);
  const WorkloadProfile adl = adl_profile();
  EXPECT_NEAR(adl.cgi_fraction, 0.443, 1e-9);
  EXPECT_NEAR(adl.native_interval_s, 22.418, 1e-9);
}

TEST(Profiles, SubstitutedWorkloadCpuShares) {
  // UCB -> WebSTONE spin (CPU-heavy); KSU -> WebGlimpse (90% CPU);
  // ADL -> catalog search (90% disk).
  EXPECT_GT(ucb_profile().cgi_cpu_fraction, 0.9);
  EXPECT_NEAR(ksu_profile().cgi_cpu_fraction, 0.9, 1e-9);
  EXPECT_NEAR(adl_profile().cgi_cpu_fraction, 0.1, 1e-9);
}

TEST(Profiles, LookupByName) {
  EXPECT_EQ(profile_by_name("ucb").name, "UCB");
  EXPECT_EQ(profile_by_name("ADL").name, "ADL");
  EXPECT_THROW(profile_by_name("nope"), std::invalid_argument);
  EXPECT_EQ(experiment_profiles().size(), 3u);
  EXPECT_EQ(table1_profiles().size(), 4u);
}

GeneratorConfig config_for(const WorkloadProfile& profile, double lambda,
                           double r, std::uint64_t seed = 7,
                           double duration = 30.0) {
  GeneratorConfig config;
  config.profile = profile;
  config.lambda = lambda;
  config.duration_s = duration;
  config.r = r;
  config.seed = seed;
  return config;
}

TEST(Generator, Deterministic) {
  const auto config = config_for(ucb_profile(), 500, 1.0 / 40.0);
  const Trace a = generate(config);
  const Trace b = generate(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records[i].arrival, b.records[i].arrival);
    EXPECT_EQ(a.records[i].service_demand, b.records[i].service_demand);
    EXPECT_EQ(a.records[i].size_bytes, b.records[i].size_bytes);
  }
}

TEST(Generator, SeedsProduceDifferentTraces) {
  const Trace a = generate(config_for(ucb_profile(), 500, 0.025, 1));
  const Trace b = generate(config_for(ucb_profile(), 500, 0.025, 2));
  ASSERT_GT(a.size(), 100u);
  EXPECT_NE(a.records[10].arrival, b.records[10].arrival);
}

TEST(Generator, ArrivalsSortedAndPositiveDemands) {
  const Trace trace = generate(config_for(adl_profile(), 800, 0.0125));
  ASSERT_GT(trace.size(), 1000u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace.records[i].arrival, trace.records[i - 1].arrival);
  for (const auto& rec : trace.records) {
    EXPECT_GT(rec.service_demand, 0);
    EXPECT_GE(rec.mem_pages, 1u);
  }
}

TEST(Generator, InvalidConfigThrows) {
  auto config = config_for(ucb_profile(), 500, 0.025);
  config.lambda = 0;
  EXPECT_THROW(generate(config), std::invalid_argument);
  config = config_for(ucb_profile(), 500, 0.025);
  config.duration_s = -1;
  EXPECT_THROW(generate(config), std::invalid_argument);
  config = config_for(ucb_profile(), 500, 0.025);
  config.r = 0;
  EXPECT_THROW(generate(config), std::invalid_argument);
}

// Non-finite inputs are rejected before any record is drawn. An infinite
// rate (zero gaps) or horizon used to loop forever, NaN lambda failed only
// by accident inside vector::reserve, and NaN mu_h slipped through and
// cast NaN demands to Time.
TEST(Generator, NonFiniteConfigThrows) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    auto config = config_for(ucb_profile(), 500, 0.025);
    config.lambda = bad;
    EXPECT_THROW(generate(config), std::invalid_argument) << bad;
    EXPECT_THROW(TraceGenerator{config}, std::invalid_argument) << bad;
    config = config_for(ucb_profile(), 500, 0.025);
    config.duration_s = bad;
    EXPECT_THROW(generate(config), std::invalid_argument) << bad;
    config = config_for(ucb_profile(), 500, 0.025);
    config.mu_h = bad;
    EXPECT_THROW(generate(config), std::invalid_argument) << bad;
    config = config_for(ucb_profile(), 500, 0.025);
    config.r = bad;
    EXPECT_THROW(generate(config), std::invalid_argument) << bad;
  }
}

void expect_same_record(const TraceRecord& a, const TraceRecord& b,
                        std::size_t i) {
  EXPECT_EQ(a.arrival, b.arrival) << "record " << i;
  EXPECT_EQ(a.cls, b.cls) << "record " << i;
  EXPECT_EQ(a.size_bytes, b.size_bytes) << "record " << i;
  EXPECT_EQ(a.service_demand, b.service_demand) << "record " << i;
  EXPECT_EQ(a.cpu_fraction, b.cpu_fraction) << "record " << i;
  EXPECT_EQ(a.mem_pages, b.mem_pages) << "record " << i;
  EXPECT_EQ(a.url_id, b.url_id) << "record " << i;
}

/// Pulls `stream` dry and checks it against `expected` record for record,
/// then that an exhausted stream stays exhausted.
void expect_stream_yields(RecordSource& stream, const Trace& expected) {
  std::size_t i = 0;
  TraceRecord rec;
  while (stream.next(rec)) {
    ASSERT_LT(i, expected.size()) << "stream yields extra records";
    expect_same_record(rec, expected.records[i], i);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  EXPECT_FALSE(stream.next(rec));
}

TEST(TraceStream, MatchesGenerateRecordForRecord) {
  std::vector<GeneratorConfig> configs;
  configs.push_back(config_for(ucb_profile(), 800, 0.025, 3, 5.0));
  configs.push_back(config_for(ksu_profile(), 800, 0.025, 4, 5.0));
  configs.back().bursty = true;
  configs.push_back(config_for(adl_profile(), 800, 0.0125, 5, 5.0));
  configs.back().diurnal = true;
  configs.back().diurnal_period_s = 2.0;
  configs.push_back(config_for(ksu_profile(), 800, 0.025, 6, 5.0));
  configs.back().cgi_distinct_urls = 0;  // every dynamic request unique
  for (const GeneratorConfig& config : configs) {
    const Trace expected = generate(config);
    ASSERT_GT(expected.size(), 1000u);
    TraceGenerator stream(config);
    // The hint is the capacity generate() reserves: expected count + 10%.
    EXPECT_EQ(stream.size_hint(),
              static_cast<std::size_t>(config.lambda * config.duration_s *
                                       1.1) +
                  16);
    expect_stream_yields(stream, expected);
  }
}

// The mid-run flip streams segment one, then segment two (flip_profile on
// the xor-salted seed) shifted by flip_at_s: the same records as
// generating both segments whole and splicing them.
TEST(TraceStream, FlipSpliceMatchesSegmentsGeneratedWhole) {
  core::ExperimentSpec spec;
  spec.profile = ksu_profile();
  spec.flip_profile = ucb_profile();
  spec.lambda = 600;
  spec.duration_s = 6.0;
  spec.flip_at_s = 2.5;
  spec.seed = 11;

  GeneratorConfig head;
  head.profile = spec.profile;
  head.lambda = spec.lambda;
  head.duration_s = spec.flip_at_s;
  head.seed = spec.seed;
  GeneratorConfig tail = head;
  tail.profile = spec.flip_profile;
  tail.duration_s = spec.duration_s - spec.flip_at_s;
  tail.seed = spec.seed ^ 0x9E3779B97F4A7C15ULL;
  Trace expected = generate(head);
  const std::size_t head_count = expected.size();
  for (TraceRecord rec : generate(tail).records) {
    rec.arrival += from_seconds(spec.flip_at_s);
    expected.records.push_back(rec);
  }
  ASSERT_GT(head_count, 500u);
  ASSERT_GT(expected.size(), head_count + 500u);

  core::ReplayStream stream(spec);
  expect_stream_yields(stream, expected);
  // generate_trace() is the same stream drained.
  core::ReplayStream again(spec);
  expect_stream_yields(again, core::generate_trace(spec));
  // A flip at or past the horizon is no flip at all.
  spec.flip_at_s = spec.duration_s;
  core::ReplayStream plain(spec);
  head.duration_s = spec.duration_s;
  expect_stream_yields(plain, generate(head));
}

// Calibration sweep: for every profile and r, the generated trace matches
// its nominal statistics — CGI fraction, arrival rate, and both per-class
// mean demands (the quantities the analytic model consumes).
class GeneratorCalibration
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(GeneratorCalibration, MatchesNominalStatistics) {
  const auto& [name, inv_r] = GetParam();
  const WorkloadProfile profile = profile_by_name(name);
  const double r = 1.0 / inv_r;
  const double lambda = 1500;
  const auto config = config_for(profile, lambda, r, 11, 60.0);
  const Trace trace = generate(config);
  const TraceStats stats = compute_stats(trace);

  EXPECT_NEAR(stats.cgi_fraction, profile.cgi_fraction,
              0.03 * (1 + profile.cgi_fraction));
  EXPECT_NEAR(stats.arrival_rate, lambda, lambda * 0.05);
  // E[static demand] == 1/mu_h within 5%.
  EXPECT_NEAR(stats.mean_static_demand_s, 1.0 / config.mu_h,
              0.05 / config.mu_h);
  // E[dynamic demand] == 1/(r mu_h) within 10% (exponential, needs n).
  EXPECT_NEAR(stats.mean_dynamic_demand_s, 1.0 / (r * config.mu_h),
              0.10 / (r * config.mu_h));
  // The derived ratio estimates should be near the configured values.
  EXPECT_NEAR(stats.r_ratio, r, r * 0.15);
  const double a = profile.cgi_fraction / (1 - profile.cgi_fraction);
  EXPECT_NEAR(stats.a_ratio, a, a * 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, GeneratorCalibration,
    ::testing::Combine(::testing::Values("ucb", "ksu", "adl", "dec"),
                       ::testing::Values(20.0, 40.0, 80.0, 160.0)));

TEST(Generator, StaticSizesComeFromSpecWeb) {
  const SpecWebFileSet files;
  const Trace trace = generate(config_for(ucb_profile(), 500, 0.025));
  for (const auto& rec : trace.records) {
    if (rec.is_dynamic()) continue;
    const int idx = files.closest_file(rec.size_bytes);
    EXPECT_EQ(files.file(idx).size_bytes, rec.size_bytes)
        << "static size not in the SPECweb96 set";
  }
}

TEST(Generator, ExponentialStaticOption) {
  auto config = config_for(ucb_profile(), 2000, 0.025, 13, 60.0);
  config.size_coupled_static = false;
  const Trace trace = generate(config);
  const TraceStats stats = compute_stats(trace);
  EXPECT_NEAR(stats.mean_static_demand_s, 1.0 / config.mu_h,
              0.05 / config.mu_h);
}

TEST(Generator, BurstyPreservesMeanRate) {
  auto config = config_for(ksu_profile(), 1000, 0.025, 17, 120.0);
  config.bursty = true;
  const Trace trace = generate(config);
  const TraceStats stats = compute_stats(trace);
  EXPECT_NEAR(stats.arrival_rate, 1000, 120);
}

TEST(Generator, BurstyIsBurstier) {
  auto calm_cfg = config_for(ksu_profile(), 1000, 0.025, 19, 60.0);
  auto burst_cfg = calm_cfg;
  burst_cfg.bursty = true;
  const Trace calm = generate(calm_cfg);
  const Trace burst = generate(burst_cfg);
  // Compare the variance of per-second arrival counts.
  auto count_variance = [](const Trace& t) {
    std::vector<int> counts(61, 0);
    for (const auto& rec : t.records) {
      const auto s = static_cast<std::size_t>(to_seconds(rec.arrival));
      if (s < counts.size()) ++counts[s];
    }
    RunningStats stats;
    for (int c : counts) stats.add(c);
    return stats.variance();
  };
  EXPECT_GT(count_variance(burst), 1.5 * count_variance(calm));
}

TEST(Rescale, HitsTargetRate) {
  Trace trace = generate(config_for(ucb_profile(), 300, 0.025, 23, 30.0));
  rescale_to_rate(trace, 1200);
  const TraceStats stats = compute_stats(trace);
  EXPECT_NEAR(stats.arrival_rate, 1200, 1.0);
}

TEST(Rescale, PreservesOrderAndCount) {
  Trace trace = generate(config_for(adl_profile(), 300, 0.025, 23, 30.0));
  const std::size_t n = trace.size();
  rescale_to_rate(trace, 50);
  EXPECT_EQ(trace.size(), n);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace.records[i].arrival, trace.records[i - 1].arrival);
}

TEST(Rescale, RejectsBadRate) {
  Trace trace = generate(config_for(ucb_profile(), 300, 0.025, 23, 5.0));
  EXPECT_THROW(rescale_to_rate(trace, 0), std::invalid_argument);
}

TEST(Rescale, TinyTraceNoop) {
  Trace trace;
  rescale_to_rate(trace, 100);  // must not crash
  trace.records.push_back(TraceRecord{});
  rescale_to_rate(trace, 100);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats stats = compute_stats(Trace{});
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.arrival_rate, 0.0);
}

TEST(TraceStats, HandCraftedValues) {
  Trace trace;
  TraceRecord s;
  s.arrival = 0;
  s.cls = RequestClass::kStatic;
  s.size_bytes = 1000;
  s.service_demand = kMillisecond;
  trace.records.push_back(s);
  TraceRecord d;
  d.arrival = kSecond;
  d.cls = RequestClass::kDynamic;
  d.size_bytes = 3000;
  d.service_demand = 40 * kMillisecond;
  trace.records.push_back(d);
  const TraceStats stats = compute_stats(trace);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.dynamic_requests, 1u);
  EXPECT_DOUBLE_EQ(stats.cgi_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.a_ratio, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_html_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(stats.mean_cgi_bytes, 3000.0);
  EXPECT_NEAR(stats.r_ratio, 1.0 / 40.0, 1e-12);
  EXPECT_NEAR(stats.mean_interval_s, 1.0, 1e-9);
}

TEST(TraceIo, RoundTrip) {
  const Trace original =
      generate(config_for(ksu_profile(), 200, 0.025, 29, 5.0));
  std::stringstream buffer;
  save_trace(buffer, original);
  const Trace loaded = load_trace(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.records[i].arrival, original.records[i].arrival);
    EXPECT_EQ(loaded.records[i].cls, original.records[i].cls);
    EXPECT_EQ(loaded.records[i].size_bytes, original.records[i].size_bytes);
    EXPECT_EQ(loaded.records[i].service_demand,
              original.records[i].service_demand);
    EXPECT_EQ(loaded.records[i].mem_pages, original.records[i].mem_pages);
  }
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(load_trace(empty), std::runtime_error);

  std::stringstream bad_header("not,a,trace\n1,2,3\n");
  EXPECT_THROW(load_trace(bad_header), std::runtime_error);

  std::stringstream bad_fields(
      "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages\n"
      "1,static,100\n");
  EXPECT_THROW(load_trace(bad_fields), std::runtime_error);

  std::stringstream bad_class(
      "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages\n"
      "1,weird,100,5,0.5,2\n");
  EXPECT_THROW(load_trace(bad_class), std::runtime_error);
}

/// The loader's message for a trace whose second row is `row` (the first
/// row is valid), or "" when the trace loads.
std::string load_error(const std::string& row) {
  std::stringstream in(
      "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages,"
      "url_id\n"
      "100,static,1000,5000,0.5,1,7\n" +
      row + "\n");
  try {
    load_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, RejectsMalformedRowsNamingLineAndField) {
  // Among them: trailing garbage after a number, a negative size (which
  // would wrap to 4294967291 in the unsigned field), NaN as a CPU share,
  // an empty field and an arrival that goes backwards.
  const std::pair<const char*, const char*> cases[] = {
      {"100abc,static,-5,1000xyz,nan,0,7",
       "arrival_ns '100abc' is not an integer"},
      {"200,static,-5,1000,0.5,1,7",
       "size_bytes '-5' is not a non-negative integer"},
      {"200,static,5,1000xyz,0.5,1,7",
       "service_demand_ns '1000xyz' is not an integer"},
      {"200,static,5,1000,nan,1,7", "cpu_fraction 'nan' is outside [0, 1]"},
      {"200,static,5,1000,0.5,1,7x",
       "url_id '7x' is not a non-negative integer"},
      {"200,static,5,1000,0.5,,7",
       "mem_pages '' is not a non-negative integer"},
      {"200,static,4294967296,1000,0.5,1,7",
       "size_bytes '4294967296' is out of range"},
      {"200,dynamic,5,0,0.5,1,7", "service_demand_ns '0' is not positive"},
      {"200,dynamic,5,-3,0.5,1,7", "service_demand_ns '-3' is not positive"},
      {"200,dynamic,5,1000,1.5,1,7", "cpu_fraction '1.5' is outside [0, 1]"},
      {"200,dynamic,5,1000,inf,1,7", "cpu_fraction 'inf' is outside [0, 1]"},
      {"200,dynamic,5,1000,0.5,0,7", "mem_pages '0' is below 1"},
      {"200,odd,5,1000,0.5,1,7", "class 'odd' is neither static nor dynamic"},
      {"-1,static,5,1000,0.5,1,7", "arrival_ns '-1' is negative"},
      {"99,static,5,1000,0.5,1,7",
       "arrival_ns '99' is before the previous row's 100"},
  };
  for (const auto& [row, message] : cases)
    EXPECT_EQ(load_error(row), std::string("trace line 3: ") + message) << row;
  // Ties and the boundary values load.
  EXPECT_EQ(load_error("100,dynamic,0,1,0,1,0"), "");
  EXPECT_EQ(load_error("100,dynamic,4294967295,1,1,4294967295,"
                       "18446744073709551615"),
            "");
}

TEST(SpecMean, MatchesAnalyticMix) {
  // 0.35*512 + 0.50*5120 + 0.14*51200 + 0.01*512000 with 102.4-byte bases.
  EXPECT_NEAR(specweb_mean_bytes(), 15027.2, 50.0);
}

}  // namespace
}  // namespace wsched::trace
