#include "trace/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace wsched::trace {
namespace {

constexpr double kPageBytes = 8192.0;

std::uint32_t clamp_pages(double pages) {
  return static_cast<std::uint32_t>(
      std::clamp(pages, 1.0, 8192.0));
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Exact expectation of the substituted SPECweb file size when the intended
/// size is lognormal with the given mean and sigma (clamped to [64, 1e6]
/// like the generator does). The substitution is a step function of the
/// intended size whose cells are the midpoints between consecutive file
/// sizes, so the expectation is a finite sum of lognormal CDF differences.
double expected_substituted_bytes(double mean_bytes, double sigma) {
  const SpecWebFileSet files;
  std::array<double, SpecWebFileSet::kFileCount> sizes{};
  for (int i = 0; i < files.count(); ++i)
    sizes[static_cast<std::size_t>(i)] = files.file(i).size_bytes;
  std::sort(sizes.begin(), sizes.end());

  const double mu = std::log(mean_bytes) - 0.5 * sigma * sigma;
  const auto cdf = [&](double x) {
    // Probability the *clamped* intended size is <= x.
    if (x < 64.0) return 0.0;
    if (x >= 1.0e6) return 1.0;
    return phi((std::log(x) - mu) / sigma);
  };

  double expectation = 0.0;
  double prev_boundary = 0.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double next_boundary =
        i + 1 < sizes.size() ? 0.5 * (sizes[i] + sizes[i + 1]) : 1.0e18;
    const double mass = cdf(next_boundary) - cdf(prev_boundary);
    expectation += sizes[i] * mass;
    prev_boundary = next_boundary;
  }
  return expectation;
}

}  // namespace

double specweb_mean_bytes() {
  const SpecWebFileSet files;
  const auto mix = SpecWebFileSet::class_mix();
  double mean = 0.0;
  for (int c = 0; c < SpecWebFileSet::kClasses; ++c) {
    double class_mean = 0.0;
    for (int i = 0; i < SpecWebFileSet::kFilesPerClass; ++i)
      class_mean += files.file(c * SpecWebFileSet::kFilesPerClass + i)
                        .size_bytes;
    class_mean /= SpecWebFileSet::kFilesPerClass;
    mean += mix[c] * class_mean;
  }
  return mean;
}

namespace {

/// Mean flash-phase residence time (seconds); flash phases are short.
constexpr double kFlashHold = 0.5;

const GeneratorConfig& validated(const GeneratorConfig& config) {
  // Written as !(x > 0) so NaN fails too; an infinite rate or horizon
  // would otherwise loop forever (zero gaps, or no end of trace).
  if (!(config.lambda > 0) || !std::isfinite(config.lambda))
    throw std::invalid_argument("lambda must be finite and > 0");
  if (!(config.duration_s > 0) || !std::isfinite(config.duration_s))
    throw std::invalid_argument("duration must be finite and > 0");
  if (!(config.r > 0) || !(config.mu_h > 0) || !std::isfinite(config.r) ||
      !std::isfinite(config.mu_h))
    throw std::invalid_argument("service rates must be finite and > 0");
  if (config.diurnal &&
      (config.diurnal_amplitude < 0.0 || config.diurnal_amplitude > 1.0 ||
       config.diurnal_period_s <= 0.0))
    throw std::invalid_argument(
        "diurnal amplitude must be in [0, 1] and period > 0");
  return config;
}

}  // namespace

TraceGenerator::TraceGenerator(const GeneratorConfig& config)
    : config_(validated(config)),
      arrivals_(config.seed, 0x41),
      classes_(config.seed, 0x42),
      static_draw_(config.seed, 0x43),
      dynamic_draw_(config.seed, 0x44),
      demand_draw_(config.seed, 0x45) {
  if (config_.cgi_distinct_urls > 0)
    zipf_.emplace(config_.cgi_distinct_urls, config_.cgi_zipf_s);

  // Normalizer for size-coupled static demand: the expected size actually
  // served for THIS profile (intended lognormal pushed through the closest-
  // file substitution), so that E[static demand] == 1/mu_h holds exactly.
  expected_bytes_ =
      expected_substituted_bytes(config_.profile.html_mean_bytes, 1.2);
  static_mean_demand_ = 1.0 / config_.mu_h;
  dynamic_mean_demand_ = 1.0 / (config_.r * config_.mu_h);

  // MMPP phase bookkeeping: the calm-phase rate is chosen so the long-run
  // average equals lambda given the multiplier and flash time fraction.
  const double flash_mult = config_.burst_rate_multiplier;
  const double flash_frac = config_.burst_fraction;
  // Diurnal thinning envelope: gaps are drawn at rate * (1 + A) and each
  // arrival is kept with probability lambda(t) / envelope, which leaves
  // the arrival stream untouched (no extra draws) when diurnal is off.
  diurnal_env_ = config_.diurnal ? 1.0 + config_.diurnal_amplitude : 1.0;
  calm_rate_ =
      (config_.bursty
           ? config_.lambda / (1.0 - flash_frac + flash_frac * flash_mult)
           : config_.lambda) *
      diurnal_env_;
  flash_rate_ = calm_rate_ * flash_mult;
  calm_hold_ = flash_frac > 0 && config_.bursty
                   ? kFlashHold * (1.0 - flash_frac) / flash_frac
                   : 1e30;
  phase_left_ = config_.bursty ? arrivals_.exponential(calm_hold_) : 1e30;
}

std::size_t TraceGenerator::size_hint() const {
  // Clamped so an absurd (finite) horizon stays a defined conversion.
  return static_cast<std::size_t>(std::min(
             config_.lambda * config_.duration_s * 1.1, 4.0e9)) +
         16;
}

bool TraceGenerator::next(TraceRecord& out) {
  while (!done_) {
    double rate = in_flash_ ? flash_rate_ : calm_rate_;
    double gap = arrivals_.exponential(1.0 / rate);
    if (config_.bursty) {
      // Advance through phase switches; arrival rate changes mid-gap are
      // approximated by re-drawing the remainder at the new rate.
      while (gap > phase_left_) {
        now_s_ += phase_left_;
        gap = 0.0;
        in_flash_ = !in_flash_;
        phase_left_ = arrivals_.exponential(in_flash_ ? kFlashHold : calm_hold_);
        rate = in_flash_ ? flash_rate_ : calm_rate_;
        gap = arrivals_.exponential(1.0 / rate);
      }
      phase_left_ -= gap;
    }
    now_s_ += gap;
    if (now_s_ >= config_.duration_s) {
      done_ = true;
      break;
    }
    if (config_.diurnal) {
      const double mod =
          1.0 + config_.diurnal_amplitude *
                    std::sin(2.0 * 3.14159265358979323846 * now_s_ /
                             config_.diurnal_period_s);
      if (!arrivals_.bernoulli(mod / diurnal_env_)) continue;
    }

    const WorkloadProfile& profile = config_.profile;
    TraceRecord rec;
    rec.arrival = from_seconds(now_s_);
    const bool dynamic = classes_.bernoulli(profile.cgi_fraction);
    if (dynamic) {
      rec.cls = RequestClass::kDynamic;
      rec.size_bytes = static_cast<std::uint32_t>(std::max(
          64.0, dynamic_draw_.lognormal_mean(profile.cgi_mean_bytes,
                                             profile.cgi_size_sigma)));
      // Exponential service (the queueing model's assumption), mean
      // 1/(r*mu_h) — this is what WebSTONE spin / WebGlimpse / ADL loads
      // were tuned to in the paper.
      rec.service_demand =
          from_seconds(demand_draw_.exponential(dynamic_mean_demand_));
      double w_mean = profile.cgi_cpu_fraction;
      if (!profile.cgi_types.empty()) {
        double u = dynamic_draw_.uniform();
        double total = 0.0;
        for (const auto& type : profile.cgi_types) total += type.weight;
        u *= total;
        w_mean = profile.cgi_types.back().cpu_fraction;
        for (const auto& type : profile.cgi_types) {
          if (u < type.weight) {
            w_mean = type.cpu_fraction;
            break;
          }
          u -= type.weight;
        }
      }
      rec.cpu_fraction = std::clamp(
          dynamic_draw_.normal(w_mean, profile.cgi_cpu_spread), 0.05, 0.95);
      rec.mem_pages = clamp_pages(dynamic_draw_.lognormal_mean(
          profile.cgi_mem_pages_mean, profile.cgi_mem_pages_sigma));
      rec.url_id = zipf_ ? 1 + zipf_->sample(dynamic_draw_) : unique_url_++;
    } else {
      rec.cls = RequestClass::kStatic;
      // Intended size from the profile's HTML distribution, substituted by
      // the closest SPECweb96 file (the paper's replay rule).
      const double intended =
          static_draw_.lognormal_mean(profile.html_mean_bytes, 1.2);
      const int file_idx = files_.closest_file(static_cast<std::uint32_t>(
          std::clamp(intended, 64.0, 1.0e6)));
      rec.size_bytes = files_.file(file_idx).size_bytes;
      if (config_.size_coupled_static) {
        // Demand tracks the substituted size with a protocol-processing
        // floor; normalized so E[demand] == 1/mu_h for this profile.
        rec.service_demand = from_seconds(
            static_mean_demand_ *
            (0.3 + 0.7 * rec.size_bytes / expected_bytes_));
      } else {
        rec.service_demand =
            from_seconds(demand_draw_.exponential(static_mean_demand_));
      }
      rec.cpu_fraction = profile.static_cpu_fraction;
      rec.mem_pages = clamp_pages(rec.size_bytes / kPageBytes + 1.0);
      // Static content identity is the served file.
      rec.url_id = static_cast<std::uint64_t>(file_idx) + 1;
    }
    if (rec.service_demand <= 0) rec.service_demand = 1;  // never free
    out = rec;
    return true;
  }
  return false;
}

Trace generate(const GeneratorConfig& config) {
  TraceGenerator stream(config);
  return materialize(stream);
}

void rescale_to_rate(Trace& trace, double lambda) {
  if (lambda <= 0) throw std::invalid_argument("lambda must be > 0");
  if (trace.records.size() < 2) return;
  const Time first = trace.records.front().arrival;
  const Time old_span = trace.span();
  if (old_span <= 0) return;
  const double new_span_s =
      static_cast<double>(trace.records.size() - 1) / lambda;
  const double scale = from_seconds(new_span_s) /
                       static_cast<double>(old_span);
  for (auto& rec : trace.records) {
    rec.arrival = first + static_cast<Time>(
                              static_cast<double>(rec.arrival - first) *
                              scale);
  }
}

}  // namespace wsched::trace
