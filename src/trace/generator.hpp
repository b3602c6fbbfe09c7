// Synthetic trace generation (the paper's replay rules, §5.1).
//
// The generator reproduces how the paper turned its logs into experiment
// input: arrival intervals are rescaled to a target rate ("requests in each
// log are issued to the cluster at various fast rates"), static requests are
// replayed against the SPECweb96 40-file set ("the file in this set with the
// closest size is returned"), and CGI bodies become synthetic loads whose
// mean demand is 1/(r * mu_h) with the profile's CPU/IO split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "trace/fileset.hpp"
#include "trace/profile.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"
#include "util/rng.hpp"

namespace wsched::trace {

struct GeneratorConfig {
  WorkloadProfile profile;
  /// Target total arrival rate in requests/second (the paper's scaled
  /// replay rate lambda). Must be finite and > 0, as must duration_s,
  /// mu_h and r.
  double lambda = 1000.0;
  /// Trace length in (simulated) seconds of arrivals.
  double duration_s = 10.0;
  /// Static service rate of one node (SPECweb96-calibrated 1200/s for the
  /// simulated clusters, 110/s for the Sun validation).
  double mu_h = 1200.0;
  /// Service-rate ratio r = mu_c / mu_h; mean CGI demand is 1/(r*mu_h).
  double r = 1.0 / 40.0;
  std::uint64_t seed = 1;
  /// Static demand follows file size (CV < 1, like real file fetches) when
  /// true; pure exponential (the queueing model's assumption) when false.
  bool size_coupled_static = true;
  /// Distinct dynamic content items (URL+parameter combinations); request
  /// popularity over them is Zipf(cgi_zipf_s). Drives the CGI-caching
  /// extension; set to 0 to make every dynamic request unique.
  std::uint64_t cgi_distinct_urls = 5000;
  double cgi_zipf_s = 0.9;
  /// Optional 2-state MMPP burstiness: when on, arrivals alternate between
  /// a calm and a flash-crowd phase with the same long-run rate lambda.
  bool bursty = false;
  double burst_rate_multiplier = 3.0;  ///< flash-phase rate multiplier
  double burst_fraction = 0.2;         ///< long-run fraction of time in flash
  /// Optional diurnal arrival-rate modulation (the autoscaling drill's
  /// day/night cycle): lambda(t) = lambda * (1 + A sin(2 pi t / T)),
  /// implemented by thinning against the lambda*(1+A) envelope so the
  /// long-run rate stays below the envelope and draws are untouched when
  /// off. Composes with `bursty` (the MMPP phase rate is modulated).
  bool diurnal = false;
  double diurnal_period_s = 20.0;   ///< cycle length T (seconds)
  double diurnal_amplitude = 0.6;   ///< A in [0, 1]
};

/// Mean size in bytes of the SPECweb96 access mix; static demands are
/// normalized by this so E[static demand] == 1/mu_h regardless of coupling.
double specweb_mean_bytes();

/// The generator as a pull stream: yields, one record per next(), exactly
/// the records generate() returns, while holding only the generator state
/// (five RNG streams, the Zipf sampler, the MMPP phase and the clock).
/// Deterministic in (config, seed).
class TraceGenerator final : public RecordSource {
 public:
  /// Throws std::invalid_argument for an invalid config, including any
  /// non-finite lambda, duration_s, mu_h or r.
  explicit TraceGenerator(const GeneratorConfig& config);

  bool next(TraceRecord& out) override;
  /// lambda * duration_s * 1.1 + 16: the expected count with headroom.
  std::size_t size_hint() const override;

 private:
  GeneratorConfig config_;
  // Independent streams: arrivals, class choice, static sizing, dynamic
  // sizing, demands — so changing one aspect of the generator never
  // perturbs the draws of the others.
  Rng arrivals_;
  Rng classes_;
  Rng static_draw_;
  Rng dynamic_draw_;
  Rng demand_draw_;
  /// Zipf popularity over distinct dynamic content items (absent when
  /// every dynamic request is unique).
  std::optional<ZipfSampler> zipf_;
  std::uint64_t unique_url_ = 1'000'000'000ULL;
  SpecWebFileSet files_;
  double expected_bytes_;
  double static_mean_demand_;
  double dynamic_mean_demand_;
  // MMPP and diurnal-envelope rates (see the constructor).
  double diurnal_env_;
  double calm_rate_;
  double flash_rate_;
  double calm_hold_;
  bool in_flash_ = false;
  double phase_left_;
  double now_s_ = 0.0;
  bool done_ = false;
};

/// Generates a trace by draining a TraceGenerator; deterministic in
/// (config, seed).
Trace generate(const GeneratorConfig& config);

/// Rescales an existing trace's inter-arrival times so that its overall
/// arrival rate becomes `lambda` (the paper's interval scaling). Relative
/// spacing is preserved. No-op on traces with fewer than 2 records.
void rescale_to_rate(Trace& trace, double lambda);

}  // namespace wsched::trace
