#include "check/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "check/json.hpp"
#include "harness/artifacts.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::check {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kFormatTag = "wsched-chaos-schedule";

const char* kProfiles[] = {"ksu", "ucb", "dec", "adl"};

bool known_profile(const std::string& name) {
  return std::find(std::begin(kProfiles), std::end(kProfiles), name) !=
         std::end(kProfiles);
}

/// Largest integer a schedule field may hold: what an int holds, and for
/// the seed what a JSON number (a double) holds exactly.
constexpr double kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxSeed = 9007199254740992.0;  // 2^53

/// One member of a schedule file object: its JSON key and the struct member
/// holding it, whose type is the value's kind (the u64 seed, a whole int, a
/// double, a bool, a string, or an array of entries with rows of their own).
/// The rows below are the file format, in file order: to_json writes them,
/// schedule_from_json reads them and nothing else, and validate() requires
/// every double among them to be finite.
template <typename T>
struct Field {
  const char* key;
  std::variant<std::uint64_t T::*, int T::*, double T::*, bool T::*,
               std::string T::*, std::vector<CrashEpisode> T::*,
               std::vector<PartitionWindow> T::*>
      member;
};

using S = ChaosSchedule;
using Crash = CrashEpisode;
using Window = PartitionWindow;

constexpr Field<S> kScheduleFields[] = {
    {"seed", &S::seed}, {"horizon_s", &S::horizon_s},
    {"warmup_s", &S::warmup_s}, {"p", &S::p}, {"m", &S::m},
    {"lambda", &S::lambda}, {"profile", &S::profile}, {"bursty", &S::bursty},
    {"diurnal", &S::diurnal}, {"diurnal_period_s", &S::diurnal_period_s},
    {"diurnal_amplitude", &S::diurnal_amplitude}, {"flip_at_s", &S::flip_at_s},
    {"flip_profile", &S::flip_profile}, {"fault", &S::fault},
    {"crashes", &S::crashes}, {"crash_mttf_s", &S::crash_mttf_s},
    {"crash_mttr_s", &S::crash_mttr_s}, {"degrade_mttf_s", &S::degrade_mttf_s},
    {"degrade_mttr_s", &S::degrade_mttr_s},
    {"degrade_cpu_factor", &S::degrade_cpu_factor},
    {"degrade_disk_factor", &S::degrade_disk_factor},
    {"stall_period_s", &S::stall_period_s}, {"stall_len_s", &S::stall_len_s},
    {"net", &S::net}, {"net_loss", &S::net_loss},
    {"net_latency_jitter_s", &S::net_latency_jitter_s},
    {"net_reorder", &S::net_reorder}, {"quorum", &S::quorum},
    {"stale_max_age_s", &S::stale_max_age_s},
    {"load_report_interval_s", &S::load_report_interval_s},
    {"partitions", &S::partitions},
    {"deadline_static_s", &S::deadline_static_s},
    {"deadline_dynamic_s", &S::deadline_dynamic_s},
    {"shed_policy", &S::shed_policy},
    {"overload_retries", &S::overload_retries}, {"breakers", &S::breakers},
    {"degraded_mode", &S::degraded_mode}, {"ctrl", &S::ctrl},
    {"ctrl_interval_s", &S::ctrl_interval_s}, {"theta_slew", &S::theta_slew},
    {"autoscale", &S::autoscale}, {"min_powered", &S::min_powered},
    {"retarget_masters", &S::retarget_masters},
    {"slow_health", &S::slow_health},
    {"slow_health_exclude", &S::slow_health_exclude}, {"hedge", &S::hedge},
    {"hedge_delay_s", &S::hedge_delay_s}, {"spans", &S::spans}};
constexpr Field<Crash> kCrashFields[] = {
    {"at_s", &Crash::at_s}, {"node", &Crash::node},
    {"recover_s", &Crash::recover_s}};
constexpr Field<Window> kWindowFields[] = {
    {"from_s", &Window::from_s}, {"until_s", &Window::until_s},
    {"cut", &Window::cut}};

std::span<const Field<S>> fields_of(const S&) { return kScheduleFields; }
std::span<const Field<Crash>> fields_of(const Crash&) { return kCrashFields; }
std::span<const Field<Window>> fields_of(const Window&) {
  return kWindowFields;
}

/// Calls `fn(key, value)` for each row of `obj`, in file order.
template <typename T, typename Fn>
void for_each_member(T& obj, Fn fn) {
  for (const auto& field : fields_of(obj))
    std::visit([&](auto member) { fn(field.key, obj.*member); },
               field.member);
}

/// Writes each row of `obj` as `"key": value`, rows split by `separator`.
template <typename T>
void write_members(std::ostream& out, const T& obj, const char* separator) {
  const char* lead = "";
  for_each_member(obj, [&](const char* key, const auto& value) {
    using V = std::decay_t<decltype(value)>;
    out << lead << '"' << key << "\": ";
    lead = separator;
    if constexpr (std::is_same_v<V, bool>) {
      out << (value ? "true" : "false");
    } else if constexpr (std::is_same_v<V, std::string>) {
      out << '"' << harness::json_escape(value) << '"';
    } else if constexpr (std::is_arithmetic_v<V>) {
      out << harness::format_number(static_cast<double>(value));
    } else {
      out << '[';
      for (std::size_t i = 0; i < value.size(); ++i) {
        out << (i > 0 ? ", {" : "{");
        write_members(out, value[i], ", ");
        out << '}';
      }
      out << ']';
    }
  });
}

/// Reads each row of `into` from `obj`; an absent member keeps the value
/// `into` holds. A member that is neither a row nor one of `also` is
/// refused. `where` prefixes names inside array entries ("crashes[2].").
template <typename T>
void read_members(const JsonValue& obj, T& into, const std::string& where,
                  std::initializer_list<std::string_view> also = {}) {
  for (const auto& [key, value] : obj.object)
    if (std::ranges::find(also, std::string_view(key)) == also.end() &&
        std::ranges::none_of(fields_of(into),
                             [&](const auto& row) { return key == row.key; }))
      throw std::invalid_argument("chaos schedule: unknown member '" + where +
                                  key + "'");
  for_each_member(into, [&](const std::string& key, auto& value) {
    using V = std::decay_t<decltype(value)>;
    const std::string name = where + key;
    if constexpr (std::is_same_v<V, bool>) {
      value = obj.get_bool(key, value);
    } else if constexpr (std::is_integral_v<V>) {
      // A fraction would be truncated, and a negative or huge value makes
      // the integer cast undefined: both are refused, naming the field.
      const double max = std::is_same_v<V, int> ? kMaxInt : kMaxSeed;
      const double x = obj.get_number(key, static_cast<double>(value));
      if (!(x >= 0.0 && x <= max && x == std::floor(x)))
        throw std::invalid_argument(
            "chaos schedule: " + name + " must be a whole number in [0, " +
            harness::format_number(max) + "], got " +
            harness::format_number(x));
      value = static_cast<V>(x);
    } else if constexpr (std::is_same_v<V, double>) {
      value = obj.get_number(key, value);
    } else if constexpr (std::is_same_v<V, std::string>) {
      value = obj.get_string(key, value);
    } else if (const JsonValue* entries = obj.find(key)) {
      if (!entries->is(JsonValue::Kind::kArray))
        throw std::invalid_argument("chaos schedule: \"" + name +
                                    "\" not an array");
      for (const JsonValue& entry : entries->array) {
        const std::string at = name + "[" + std::to_string(value.size()) + "].";
        read_members(entry, value.emplace_back(), at);
      }
    }
  });
}

/// "<where><key> must be finite" for the first double row of `obj` that is
/// not, then likewise inside its array entries in order; "" when all are.
template <typename T>
std::string non_finite(const T& obj, const std::string& where) {
  std::string problem;
  for_each_member(obj, [&](const char* key, const auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>)
      if (problem.empty() && !std::isfinite(value))
        problem = where + key + " must be finite";
  });
  for_each_member(obj, [&](const char* key, const auto& value) {
    if constexpr (requires { fields_of(value[0]); })  // array of entries
      for (std::size_t i = 0; i < value.size() && problem.empty(); ++i)
        problem = non_finite(value[i],
                             where + key + "[" + std::to_string(i) + "].");
  });
  return problem;
}

/// The schedule's scenario mapped onto an ExperimentSpec, unchecked.
core::ExperimentSpec lower(const ChaosSchedule& s) {
  core::ExperimentSpec spec;
  spec.profile = trace::profile_by_name(s.profile);
  spec.p = s.p;
  spec.m = s.m;
  spec.lambda = s.lambda;
  spec.r = 1.0 / 40.0;
  spec.duration_s = s.horizon_s;
  spec.warmup_s = s.warmup_s;
  spec.kind = core::SchedulerKind::kMs;
  // Salt the run seed so the workload stream is independent of the
  // generator's own sampling stream.
  std::uint64_t state = s.seed;
  spec.seed = splitmix64(state);
  spec.bursty = s.bursty;
  spec.diurnal = s.diurnal;
  spec.diurnal_period_s = s.diurnal_period_s;
  spec.diurnal_amplitude = s.diurnal_amplitude;
  if (s.flip_at_s > 0.0 && s.flip_at_s < s.horizon_s) {
    spec.flip_at_s = s.flip_at_s;
    spec.flip_profile = trace::profile_by_name(s.flip_profile);
  }

  if (s.fault) {
    spec.fault.enabled = true;
    spec.fault.mttf_s = s.crash_mttf_s;
    spec.fault.mttr_s = s.crash_mttr_s;
    for (const CrashEpisode& c : s.crashes) {
      spec.fault.script.push_back({from_seconds(c.at_s), c.node,
                                   fault::FaultKind::kCrash, 1.0, 1.0});
      if (c.recover_s > c.at_s)
        spec.fault.script.push_back({from_seconds(c.recover_s), c.node,
                                     fault::FaultKind::kRecover, 1.0, 1.0});
    }
    spec.fault.degrade_mttf_s = s.degrade_mttf_s;
    spec.fault.degrade_mttr_s = s.degrade_mttr_s;
    spec.fault.degrade_cpu_factor = s.degrade_cpu_factor;
    spec.fault.degrade_disk_factor = s.degrade_disk_factor;
    spec.fault.stall_period_s = s.stall_period_s;
    spec.fault.stall_len_s = s.stall_len_s;
  }

  if (s.net) {
    spec.net.enabled = true;
    spec.net.loss = s.net_loss;
    spec.net.latency_jitter_s = s.net_latency_jitter_s;
    spec.net.reorder = s.net_reorder;
    spec.net.quorum = s.quorum;
    spec.net.stale_max_age_s = s.stale_max_age_s;
    spec.net.load_report_interval_s = s.load_report_interval_s;
    for (const PartitionWindow& w : s.partitions) {
      net::PartitionSpec part;
      part.from = from_seconds(w.from_s);
      part.until = from_seconds(w.until_s);
      part.groups.resize(2);
      for (int n = 0; n < s.p; ++n)
        part.groups[n < w.cut ? 0 : 1].push_back(n);
      spec.net.partitions.push_back(std::move(part));
    }
  }

  spec.overload.deadline.static_s = s.deadline_static_s;
  spec.overload.deadline.dynamic_s = s.deadline_dynamic_s;
  spec.overload.admission.policy =
      overload::parse_admission_policy(s.shed_policy);
  spec.overload.admission.max_queue = 24.0;
  spec.overload.admission.max_utilization = 0.85;
  spec.overload.admission.stretch_target = 5.0;
  spec.overload.max_retries = s.overload_retries;
  spec.overload.breaker.enabled = s.breakers;
  spec.overload.breaker.queue_trip = 64.0;
  spec.overload.saturation.enabled = s.degraded_mode;
  spec.overload.saturation.enter_queue = 12.0;
  spec.overload.saturation.exit_queue = 4.0;

  if (s.ctrl) {
    spec.ctrl.enabled = true;
    spec.ctrl.interval_s = s.ctrl_interval_s;
    spec.ctrl.theta_slew = s.theta_slew;
    spec.ctrl.autoscale = s.autoscale;
    spec.ctrl.min_powered = s.min_powered;
    spec.ctrl.retarget_masters = s.retarget_masters;
  }

  if (s.slow_health) {
    spec.slow_health.enabled = true;
    spec.slow_health.exclude = s.slow_health_exclude;
  }
  if (s.hedge) {
    spec.hedge.enabled = true;
    spec.hedge.delay_s = s.hedge_delay_s;
  }
  spec.obs.spans = s.spans;

  // Runaway guard: a hostile composition may saturate, but it must
  // quarantine (EngineGuardError -> "engine-guard" violation), not spin.
  spec.max_events = 80'000'000;
  return spec;
}

}  // namespace

ChaosSchedule generate_schedule(std::uint64_t seed,
                                const ChaosGenConfig& config) {
  // A dedicated stream id keeps schedule sampling independent from every
  // in-run consumer of the same seed.
  Rng rng(seed, 0xC4A05C4EDULL);
  ChaosSchedule s;
  s.seed = seed;

  // --- workload ---
  s.horizon_s = rng.uniform(config.horizon_lo_s, config.horizon_hi_s);
  s.warmup_s = 1.0;
  s.p = 6 + 2 * static_cast<int>(rng.uniform_int(3));  // 6 | 8 | 10
  s.m = 2 + ((s.p >= 10 && rng.bernoulli(0.3)) ? 1 : 0);
  s.lambda = static_cast<double>(s.p) *
             rng.uniform(config.lambda_per_node_lo, config.lambda_per_node_hi);
  s.profile = kProfiles[rng.uniform_int(4)];
  s.bursty = rng.bernoulli(0.3);
  if (rng.bernoulli(0.2)) {
    s.flip_at_s = s.horizon_s * rng.uniform(0.35, 0.65);
    s.flip_profile = kProfiles[rng.uniform_int(4)];
  }

  const bool autoscale_branch = rng.bernoulli(config.autoscale_prob);
  if (!autoscale_branch) {
    // --- fault branch: crash/degrade/partition chaos ---
    s.fault = true;
    if (rng.bernoulli(0.5)) {
      s.crash_mttf_s = rng.uniform(6.0, 30.0);
      s.crash_mttr_s = rng.uniform(1.0, 4.0);
    }
    const int scripted = static_cast<int>(rng.uniform_int(3));  // 0..2
    for (int i = 0; i < scripted; ++i) {
      CrashEpisode c;
      c.at_s = rng.uniform(s.warmup_s, 0.8 * s.horizon_s);
      // Bias crashes toward masters: promotions are where the membership
      // invariants live.
      c.node = rng.bernoulli(0.5)
                   ? static_cast<int>(rng.uniform_int(
                         static_cast<std::uint64_t>(s.m)))
                   : static_cast<int>(rng.uniform_int(
                         static_cast<std::uint64_t>(s.p)));
      c.recover_s =
          rng.bernoulli(0.75) ? c.at_s + rng.uniform(1.0, 4.0) : 0.0;
      s.crashes.push_back(c);
    }
    if (rng.bernoulli(0.4)) {
      s.degrade_mttf_s = rng.uniform(4.0, 15.0);
      s.degrade_mttr_s = rng.uniform(1.0, 3.0);
      s.degrade_cpu_factor = rng.uniform(0.15, 0.5);
      s.degrade_disk_factor = rng.uniform(0.3, 0.8);
      if (rng.bernoulli(0.5)) {
        s.stall_period_s = rng.uniform(0.5, 2.0);
        s.stall_len_s = rng.uniform(0.01, 0.08);
      }
    }
    s.net = rng.bernoulli(0.7);
    if (s.net) {
      if (rng.bernoulli(0.7)) s.net_loss = rng.uniform(0.0, 0.08);
      s.net_latency_jitter_s = rng.uniform(0.0, 0.002);
      if (rng.bernoulli(0.3)) s.net_reorder = rng.uniform(0.0, 0.2);
      if (rng.bernoulli(0.4)) s.stale_max_age_s = rng.uniform(0.5, 2.0);
      if (rng.bernoulli(0.3))
        s.load_report_interval_s = rng.uniform(0.1, 0.5);
      if (rng.bernoulli(0.6)) {
        const int windows = 1 + static_cast<int>(rng.uniform_int(2));
        for (int i = 0; i < windows; ++i) {
          PartitionWindow w;
          w.from_s = rng.uniform(s.warmup_s,
                                 std::max(s.warmup_s + 0.5,
                                          s.horizon_s - 2.0));
          w.until_s = w.from_s + rng.uniform(0.5, 2.5);
          // Small minority side (usually containing master 0) most of the
          // time; an arbitrary split otherwise.
          w.cut = rng.bernoulli(0.6)
                      ? 1 + static_cast<int>(rng.uniform_int(2))
                      : 1 + static_cast<int>(rng.uniform_int(
                                static_cast<std::uint64_t>(s.p - 1)));
          s.partitions.push_back(w);
        }
        // Partition-during-promotion: slide the first window onto the
        // first scripted crash so the membership round that replaces the
        // dead master runs while the cluster is split.
        if (!s.crashes.empty() && rng.bernoulli(0.5)) {
          const double dur =
              s.partitions[0].until_s - s.partitions[0].from_s;
          s.partitions[0].from_s = s.crashes[0].at_s + rng.uniform(0.0, 0.3);
          s.partitions[0].until_s = s.partitions[0].from_s + dur;
        }
      }
    }
    s.ctrl = rng.bernoulli(0.35);
    if (s.ctrl) {
      s.ctrl_interval_s = rng.uniform(0.3, 1.0);
      s.theta_slew = rng.uniform(0.02, 0.10);
    }
  } else {
    // --- autoscale branch: power churn chaos (fault layer must stay off;
    // ClusterSim rejects the combination outright) ---
    s.ctrl = true;
    s.autoscale = true;
    s.ctrl_interval_s = rng.uniform(0.3, 1.0);
    s.theta_slew = rng.uniform(0.02, 0.10);
    s.min_powered = 2;
    s.retarget_masters = rng.bernoulli(0.3);
    s.diurnal = rng.bernoulli(0.7);  // day/night swing drives scale actions
    s.net = rng.bernoulli(0.5);
    if (s.net) {
      if (rng.bernoulli(0.7)) s.net_loss = rng.uniform(0.0, 0.05);
      s.net_latency_jitter_s = rng.uniform(0.0, 0.002);
    }
  }
  if (!s.diurnal && rng.bernoulli(0.2)) s.diurnal = true;
  if (s.diurnal) {
    s.diurnal_period_s = rng.uniform(4.0, 10.0);
    s.diurnal_amplitude = rng.uniform(0.3, 0.7);
  }

  // --- overload control (either branch) ---
  if (rng.bernoulli(0.5)) {
    if (rng.bernoulli(0.7)) s.deadline_static_s = rng.uniform(0.5, 1.5);
    if (rng.bernoulli(0.7)) s.deadline_dynamic_s = rng.uniform(1.0, 3.0);
    static const char* kPolicies[] = {"none", "queue", "util", "stretch"};
    s.shed_policy = kPolicies[rng.uniform_int(4)];
    s.overload_retries = static_cast<int>(rng.uniform_int(4));
    s.breakers = rng.bernoulli(0.4);
    s.degraded_mode = rng.bernoulli(0.3);
  }

  // --- gray-failure defenses (either branch) ---
  s.slow_health = rng.bernoulli(0.35);
  if (s.slow_health) s.slow_health_exclude = rng.bernoulli(0.5);
  s.hedge = rng.bernoulli(0.4);
  if (s.hedge && rng.bernoulli(0.3))
    s.hedge_delay_s = rng.uniform(0.02, 0.10);

  // --- span probe ---
  s.spans = rng.bernoulli(0.5);
  return s;
}

std::string validate(const ChaosSchedule& s) {
  if (s.p < 2 || s.m < 1 || s.m >= s.p) return "need 2 <= m+1 <= p";
  // A JSON 1e999 parses as infinity. An infinite (or NaN) horizon or rate
  // would leave the trace generator looping forever, and an infinite event
  // time would overflow from_seconds(), so no double field may be either.
  if (std::string problem = non_finite(s, ""); !problem.empty())
    return problem;
  if (s.warmup_s < 0.0) return "warmup_s must be >= 0";
  if (s.horizon_s <= s.warmup_s) return "horizon must exceed warmup";
  if (s.lambda <= 0.0) return "lambda must be > 0";
  if (!known_profile(s.profile)) return "unknown profile '" + s.profile + "'";
  if (!known_profile(s.flip_profile))
    return "unknown flip_profile '" + s.flip_profile + "'";
  if ((s.autoscale || s.retarget_masters) && !s.ctrl)
    return "autoscale and retarget_masters require ctrl (without it they "
           "would not reach the run)";
  if (!s.partitions.empty() && !s.net)
    return "partitions require the net model";
  if (!s.crashes.empty() && !s.fault) return "crashes require the fault layer";
  for (const CrashEpisode& c : s.crashes) {
    if (c.node < 0 || c.node >= s.p) return "crash node out of range";
    if (c.at_s <= 0.0) return "crash time must be > 0";
    if (c.recover_s > 0.0 && c.recover_s <= c.at_s)
      return "crash recovery must follow the crash";
  }
  for (const PartitionWindow& w : s.partitions) {
    if (w.cut < 1 || w.cut >= s.p) return "partition cut out of range";
    if (w.until_s <= w.from_s) return "partition window must be non-empty";
  }
  if (s.net_loss < 0.0 || s.net_loss >= 1.0) return "loss must be in [0, 1)";
  if (s.shed_policy != "none" && s.shed_policy != "queue" &&
      s.shed_policy != "util" && s.shed_policy != "stretch")
    return "unknown shed policy";
  // The layer-composition rules are the cluster's own, on the lowered spec.
  const core::ExperimentSpec spec = lower(s);
  return core::composition_problem(spec.fault, spec.net, spec.ctrl,
                                   spec.hedge);
}

core::ExperimentSpec to_spec(const ChaosSchedule& s) {
  const std::string problem = validate(s);
  if (!problem.empty())
    throw std::invalid_argument("chaos schedule: " + problem);
  return lower(s);
}

std::string to_json(const ChaosSchedule& s) {
  std::ostringstream out;
  out << "{\n  \"format\": \"" << kFormatTag << "\",\n  \"version\": "
      << kFormatVersion << ",\n  ";
  write_members(out, s, ",\n  ");
  out << "\n}\n";
  return out.str();
}

ChaosSchedule schedule_from_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is(JsonValue::Kind::kObject))
    throw std::invalid_argument("chaos schedule: not a JSON object");
  if (doc.get_string("format", "") != kFormatTag)
    throw std::invalid_argument(
        "chaos schedule: missing or wrong \"format\" tag");
  if (doc.get_number("version", 0) != kFormatVersion)
    throw std::invalid_argument("chaos schedule: unsupported version");
  ChaosSchedule s;
  read_members(doc, s, "", {"format", "version"});
  return s;
}

}  // namespace wsched::check
