// Golden-artifact anchors for the hot-path engine rebuild: the refactor
// (event calendar, pooled processes, SoA load state, batched obs) promises
// byte-identical behavior, so these tests pin seed-era output hashes for
// one M/S grid point, one ctrl-enabled observability run and one hedged
// run over the CGI cache. Any change to event ordering, RNG draw sequence
// or artifact formatting trips them.
//
// To re-pin after an *intentional* semantic change, run with
// WSCHED_PRINT_GOLDEN=1 and copy the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/decision_log.hpp"
#include "obs/probes.hpp"
#include "obs/trace.hpp"
#include "trace/profile.hpp"

namespace wsched {
namespace {

/// FNV-1a 64-bit over the serialized artifact bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool print_golden() {
  return std::getenv("WSCHED_PRINT_GOLDEN") != nullptr;
}

// Seed-era pinned values (p=8, lambda=300, ksu, seed=1234, 2s/0.5s).
constexpr double kGridStretch = 1.8589433084799023;
constexpr std::uint64_t kGridEvents = 3386;
constexpr std::uint64_t kGridTraceHash = 9404565998790318021ull;
constexpr std::uint64_t kGridDecisionsHash = 14219026472456607891ull;
constexpr std::uint64_t kGridProbesHash = 1344076430845906592ull;
constexpr double kCtrlStretch = 1.7674564679738916;
constexpr std::uint64_t kCtrlEvents = 3378;
constexpr std::uint64_t kCtrlTraceHash = 3963131497190702515ull;
constexpr std::uint64_t kCtrlDecisionsHash = 12732148973856617977ull;
// Hedged dispatch over the CGI cache under crash and fail-slow churn
// (same grid point). A hedge copy re-routes the request as it arrived,
// before any cache-hit demotion. Pinned from a replay that held the whole
// trace in memory, so a streamed replay that keeps the wrong per-request
// record routes some copy differently and trips the trace hash.
constexpr double kHedgeStretch = 19.437547233516611;
constexpr std::uint64_t kHedgeEvents = 3822;
constexpr std::uint64_t kHedgeTraceHash = 6873655822442740592ull;

core::ExperimentSpec grid_point_spec() {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 2.0;
  spec.warmup_s = 0.5;
  spec.seed = 1234;
  spec.kind = core::SchedulerKind::kMs;
  return spec;
}

TEST(GoldenArtifacts, MsGridPointIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  obs::ProbeRecorder probes(from_seconds(0.5));
  core::ExperimentSpec spec = grid_point_spec();
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  spec.observer.probes = &probes;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  std::ostringstream probe_csv;
  probes.write_csv(probe_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  const std::uint64_t probes_hash = fnv1a(probe_csv.str());
  if (print_golden()) {
    std::printf("ms-grid: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux probes=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash),
                static_cast<unsigned long long>(probes_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kGridStretch);
  EXPECT_EQ(result.run.events, kGridEvents);
  EXPECT_EQ(trace_hash, kGridTraceHash);
  EXPECT_EQ(decisions_hash, kGridDecisionsHash);
  EXPECT_EQ(probes_hash, kGridProbesHash);
}

TEST(GoldenArtifacts, CtrlEnabledRunIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = grid_point_spec();
  spec.ctrl.enabled = true;
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  if (print_golden()) {
    std::printf("ctrl-run: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kCtrlStretch);
  EXPECT_EQ(result.run.events, kCtrlEvents);
  EXPECT_EQ(trace_hash, kCtrlTraceHash);
  EXPECT_EQ(decisions_hash, kCtrlDecisionsHash);
}

TEST(GoldenArtifacts, HedgedCacheRunIsBitStable) {
  obs::ChromeTraceSink sink;
  core::ExperimentSpec spec = grid_point_spec();
  spec.fault.enabled = true;
  spec.fault.mttf_s = 4.0;
  spec.fault.mttr_s = 0.5;
  spec.fault.degrade_mttf_s = 1.0;
  spec.fault.degrade_mttr_s = 0.5;
  spec.fault.degrade_cpu_factor = 0.1;
  spec.hedge.enabled = true;
  spec.hedge.hedge_static = true;
  spec.hedge.delay_s = 0.02;
  spec.cgi_cache_entries = 256;
  spec.cgi_distinct_urls = 200;
  spec.observer.trace = &sink;
  const auto result = core::run_experiment(spec);

  const std::uint64_t trace_hash = fnv1a(sink.str());
  if (print_golden()) {
    std::printf("hedge-cache: stretch=%.17g events=%llu trace=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash));
  }
  ASSERT_GT(result.run.hedges_launched, 0u);
  ASSERT_GT(result.run.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kHedgeStretch);
  EXPECT_EQ(result.run.events, kHedgeEvents);
  EXPECT_EQ(trace_hash, kHedgeTraceHash);
}

}  // namespace
}  // namespace wsched
