// Tests for the extension features: the Zipf sampler, content identity in
// traces, the Swala-style CGI cache (unit + integrated), speed-aware RSRC
// on heterogeneous clusters, and the ablation knobs.
#include <gtest/gtest.h>

#include <map>

#include "core/cache.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/rsrc.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

#include <sstream>

namespace wsched {
namespace {

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
}

TEST(Zipf, SamplesInRange) {
  ZipfSampler zipf(100, 0.9);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, RankFrequenciesMatchTheory) {
  const double s = 1.0;
  const std::uint64_t n = 50;
  ZipfSampler zipf(n, s);
  Rng rng(5);
  std::vector<int> counts(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];
  // Normalizer H_n = sum 1/k.
  double hn = 0;
  for (std::uint64_t k = 1; k <= n; ++k) hn += 1.0 / static_cast<double>(k);
  for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{10}, std::uint64_t{50}}) {
    const double expected = (1.0 / static_cast<double>(k)) / hn;
    const double observed =
        static_cast<double>(counts[k - 1]) / draws;
    EXPECT_NEAR(observed, expected, 0.15 * expected + 0.002) << "rank " << k;
  }
}

TEST(Zipf, HigherSkewConcentrates) {
  Rng rng_a(7), rng_b(7);
  ZipfSampler mild(1000, 0.5), steep(1000, 1.2);
  int mild_top = 0, steep_top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.sample(rng_a) < 10) ++mild_top;
    if (steep.sample(rng_b) < 10) ++steep_top;
  }
  EXPECT_GT(steep_top, 2 * mild_top);
}

TEST(TraceUrlIds, DynamicIdsRepeatUnderZipf) {
  trace::GeneratorConfig config;
  config.profile = trace::ksu_profile();
  config.lambda = 1000;
  config.duration_s = 20;
  config.seed = 3;
  config.cgi_distinct_urls = 100;  // small population -> heavy repetition
  const trace::Trace t = trace::generate(config);
  std::map<std::uint64_t, int> counts;
  int dynamic = 0;
  for (const auto& rec : t.records) {
    if (!rec.is_dynamic()) continue;
    ++dynamic;
    EXPECT_GE(rec.url_id, 1u);
    EXPECT_LE(rec.url_id, 100u);
    ++counts[rec.url_id];
  }
  ASSERT_GT(dynamic, 1000);
  EXPECT_LT(static_cast<int>(counts.size()), dynamic / 5)
      << "ids should repeat heavily";
}

TEST(TraceUrlIds, UniqueWhenZipfDisabled) {
  trace::GeneratorConfig config;
  config.profile = trace::ksu_profile();
  config.lambda = 500;
  config.duration_s = 5;
  config.seed = 3;
  config.cgi_distinct_urls = 0;
  const trace::Trace t = trace::generate(config);
  std::map<std::uint64_t, int> counts;
  for (const auto& rec : t.records)
    if (rec.is_dynamic()) ++counts[rec.url_id];
  for (const auto& [url, count] : counts) EXPECT_EQ(count, 1);
}

TEST(TraceUrlIds, SurvivesCsvRoundTrip) {
  trace::GeneratorConfig config;
  config.profile = trace::adl_profile();
  config.lambda = 200;
  config.duration_s = 3;
  config.seed = 9;
  const trace::Trace original = trace::generate(config);
  std::stringstream buffer;
  trace::save_trace(buffer, original);
  const trace::Trace loaded = trace::load_trace(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i)
    EXPECT_EQ(loaded.records[i].url_id, original.records[i].url_id);
}

TEST(TraceUrlIds, LegacySixFieldRowsLoad) {
  std::stringstream in(
      "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages\n"
      "5,static,100,1000,0.5,2\n");
  const trace::Trace t = trace::load_trace(in);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.records[0].url_id, 0u);
}

TEST(CgiCache, HitMissAndLru) {
  core::CgiCache cache(2, kSecond);
  EXPECT_FALSE(cache.lookup(1, 0));
  cache.insert(1, 0);
  cache.insert(2, 0);
  EXPECT_TRUE(cache.lookup(1, 1));   // 1 is now most recent
  cache.insert(3, 1);                // evicts 2 (LRU)
  EXPECT_FALSE(cache.lookup(2, 1));
  EXPECT_TRUE(cache.lookup(1, 1));
  EXPECT_TRUE(cache.lookup(3, 1));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CgiCache, TtlExpiry) {
  core::CgiCache cache(4, 10 * kMillisecond);
  cache.insert(7, 0);
  EXPECT_TRUE(cache.lookup(7, 5 * kMillisecond));
  EXPECT_FALSE(cache.lookup(7, 20 * kMillisecond));
  EXPECT_EQ(cache.size(), 0u) << "expired entry must be evicted";
  // Re-insert refreshes the timestamp.
  cache.insert(7, 20 * kMillisecond);
  EXPECT_TRUE(cache.lookup(7, 25 * kMillisecond));
}

TEST(CgiCache, DisabledAndZeroUrl) {
  core::CgiCache disabled(0, kSecond);
  disabled.insert(1, 0);
  EXPECT_FALSE(disabled.lookup(1, 0));
  EXPECT_EQ(disabled.lookups(), 0u);

  core::CgiCache cache(4, kSecond);
  cache.insert(0, 0);  // unknown identity is never cached
  EXPECT_FALSE(cache.lookup(0, 0));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CgiCache, StatisticsAccumulate) {
  core::CgiCache cache(4, kSecond);
  cache.insert(1, 0);
  (void)cache.lookup(1, 0);
  (void)cache.lookup(2, 0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_ratio(), 0.5);
}

core::ClusterConfig cached_config(int p, int m, std::size_t entries) {
  core::ClusterConfig config;
  config.p = p;
  config.m = m;
  config.seed = 11;
  config.warmup = kSecond;
  config.reservation.initial_r = 1.0 / 40.0;
  config.reservation.initial_a = 0.41;
  config.initial_dynamic_demand_s = 40.0 / 1200.0;
  config.cgi_cache_entries = entries;
  config.cgi_cache_ttl = 30 * kSecond;
  return config;
}

TEST(CachedCluster, HitsReduceStretch) {
  trace::GeneratorConfig gen;
  gen.profile = trace::ksu_profile();
  gen.lambda = 500;
  gen.duration_s = 8;
  gen.seed = 11;
  gen.cgi_distinct_urls = 200;
  const trace::Trace trace = trace::generate(gen);

  core::ClusterSim uncached(cached_config(8, 3, 0), core::make_ms());
  const core::RunResult base = uncached.run(trace);
  EXPECT_EQ(base.cache_lookups, 0u);

  core::ClusterSim cached(cached_config(8, 3, 256), core::make_ms());
  const core::RunResult with_cache = cached.run(trace);
  EXPECT_GT(with_cache.cache_lookups, 0u);
  EXPECT_GT(with_cache.cache_hit_ratio(), 0.10);
  EXPECT_LT(with_cache.metrics.stretch, base.metrics.stretch);
  EXPECT_EQ(with_cache.completed, with_cache.submitted);
}

TEST(CachedCluster, UniqueContentNeverHits) {
  trace::GeneratorConfig gen;
  gen.profile = trace::ksu_profile();
  gen.lambda = 300;
  gen.duration_s = 4;
  gen.seed = 11;
  gen.cgi_distinct_urls = 0;  // every dynamic request unique
  const trace::Trace trace = trace::generate(gen);
  core::ClusterSim cached(cached_config(8, 3, 256), core::make_ms());
  const core::RunResult run = cached.run(trace);
  EXPECT_GT(run.cache_lookups, 0u);
  EXPECT_EQ(run.cache_hits, 0u);
}

TEST(SpeedAwareRsrc, PrefersFasterNodeAtEqualLoad) {
  std::vector<core::LoadInfo> load(2, core::LoadInfo{0.5, 0.5});
  std::vector<sim::NodeParams> speeds(2);
  speeds[1].cpu_speed = 4.0;
  std::vector<int> candidates = {0, 1};
  Rng rng(3);
  int fast_picks = 0;
  for (int i = 0; i < 200; ++i)
    if (candidates[core::pick_min_rsrc(1.0, candidates, load, &speeds, rng,
                                       0.0)] == 1)
      ++fast_picks;
  EXPECT_EQ(fast_picks, 200);
  // Null speeds reduce to the homogeneous pick: exact tie, split ~50/50.
  fast_picks = 0;
  for (int i = 0; i < 2000; ++i)
    if (candidates[core::pick_min_rsrc(1.0, candidates, load, nullptr, rng,
                                       0.0)] == 1)
      ++fast_picks;
  EXPECT_GT(fast_picks, 600);
  EXPECT_LT(fast_picks, 1400);
}

TEST(AblationKnobs, FeedbackToggleChangesBehaviour) {
  trace::GeneratorConfig gen;
  gen.profile = trace::ksu_profile();
  gen.lambda = 400;
  gen.duration_s = 5;
  gen.seed = 13;
  const trace::Trace trace = trace::generate(gen);

  core::ClusterConfig with = cached_config(8, 3, 0);
  core::ClusterConfig without = cached_config(8, 3, 0);
  without.use_dispatch_feedback = false;
  core::ClusterSim a(with, core::make_ms());
  core::ClusterSim b(without, core::make_ms());
  EXPECT_NE(a.run(trace).metrics.stretch, b.run(trace).metrics.stretch);
}

TEST(AblationKnobs, BinaryGateStillBoundsMasterFraction) {
  trace::GeneratorConfig gen;
  gen.profile = trace::adl_profile();
  gen.lambda = 400;
  gen.duration_s = 6;
  gen.seed = 13;
  const trace::Trace trace = trace::generate(gen);
  core::ClusterSim cluster(cached_config(8, 2, 0),
                           core::make_ms({.binary_admission = true}));
  const core::RunResult run = cluster.run(trace);
  EXPECT_EQ(run.completed, run.submitted);
  // The binary gate also keeps the long-run fraction near/below the limit.
  EXPECT_LT(run.master_fraction, run.theta_limit + 0.1);
}

}  // namespace
}  // namespace wsched
