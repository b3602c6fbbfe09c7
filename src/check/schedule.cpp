#include "check/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/json.hpp"
#include "harness/artifacts.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::check {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kFormatTag = "wsched-chaos-schedule";

trace::WorkloadProfile profile_by_name(const std::string& name) {
  if (name == "ksu") return trace::ksu_profile();
  if (name == "ucb") return trace::ucb_profile();
  if (name == "dec") return trace::dec_profile();
  if (name == "adl") return trace::adl_profile();
  throw std::invalid_argument("chaos schedule: unknown profile '" + name +
                              "'");
}

const char* kProfiles[] = {"ksu", "ucb", "dec", "adl"};

bool known_profile(const std::string& name) {
  return std::find(std::begin(kProfiles), std::end(kProfiles), name) !=
         std::end(kProfiles);
}

/// Largest integer a schedule field may hold: what an int holds, and for
/// the seed what a JSON number (a double) holds exactly.
constexpr double kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxSeed = 9007199254740992.0;  // 2^53

/// Member `key` of `obj` as a whole number in [0, max]. A fraction would
/// be truncated and a negative or huge value makes the integer cast
/// undefined, so both are refused with the field's name (`where` prefixes
/// it for members of array entries, e.g. "crashes[2].").
double whole(const JsonValue& obj, const std::string& key, double fallback,
             double max, const std::string& where = "") {
  const double value = obj.get_number(key, fallback);
  if (!(value >= 0.0 && value <= max && value == std::floor(value)))
    throw std::invalid_argument(
        "chaos schedule: " + where + key + " must be a whole number in [0, " +
        harness::format_number(max) + "], got " +
        harness::format_number(value));
  return value;
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
  const std::pair<const char*, double> scalars[] = {
      {"horizon_s", s.horizon_s},
      {"warmup_s", s.warmup_s},
      {"lambda", s.lambda},
      {"diurnal_period_s", s.diurnal_period_s},
      {"diurnal_amplitude", s.diurnal_amplitude},
      {"flip_at_s", s.flip_at_s},
      {"crash_mttf_s", s.crash_mttf_s},
      {"crash_mttr_s", s.crash_mttr_s},
      {"degrade_mttf_s", s.degrade_mttf_s},
      {"degrade_mttr_s", s.degrade_mttr_s},
      {"degrade_cpu_factor", s.degrade_cpu_factor},
      {"degrade_disk_factor", s.degrade_disk_factor},
      {"stall_period_s", s.stall_period_s},
      {"stall_len_s", s.stall_len_s},
      {"net_loss", s.net_loss},
      {"net_latency_jitter_s", s.net_latency_jitter_s},
      {"net_reorder", s.net_reorder},
      {"stale_max_age_s", s.stale_max_age_s},
      {"load_report_interval_s", s.load_report_interval_s},
      {"deadline_static_s", s.deadline_static_s},
      {"deadline_dynamic_s", s.deadline_dynamic_s},
      {"ctrl_interval_s", s.ctrl_interval_s},
      {"theta_slew", s.theta_slew},
      {"hedge_delay_s", s.hedge_delay_s}};
  for (const auto& [name, value] : scalars)
    if (!std::isfinite(value)) return std::string(name) + " must be finite";
  for (std::size_t i = 0; i < s.crashes.size(); ++i) {
    const CrashEpisode& c = s.crashes[i];
    for (const auto& [name, value] :
         {std::pair{"at_s", c.at_s}, std::pair{"recover_s", c.recover_s}})
      if (!std::isfinite(value))
        return "crashes[" + std::to_string(i) + "]." + name + " must be finite";
  }
  for (std::size_t i = 0; i < s.partitions.size(); ++i) {
    const PartitionWindow& w = s.partitions[i];
    for (const auto& [name, value] :
         {std::pair{"from_s", w.from_s}, std::pair{"until_s", w.until_s}})
      if (!std::isfinite(value))
        return "partitions[" + std::to_string(i) + "]." + name +
               " must be finite";
  }
  if (s.warmup_s < 0.0) return "warmup_s must be >= 0";
  if (s.horizon_s <= s.warmup_s) return "horizon must exceed warmup";
  if (s.lambda <= 0.0) return "lambda must be > 0";
  if (!known_profile(s.profile)) return "unknown profile '" + s.profile + "'";
  if (!s.flip_profile.empty() && !known_profile(s.flip_profile))
    return "unknown flip_profile '" + s.flip_profile + "'";
  if (s.autoscale && s.fault)
    return "autoscale and the fault layer are mutually exclusive";
  if (s.retarget_masters && s.fault)
    return "retarget_masters and fault are mutually exclusive (failover "
           "owns the roles)";
  if (s.retarget_masters && !s.autoscale)
    return "retarget_masters requires autoscale (the control loop retargets "
           "only alongside its power actions)";
  if (!s.partitions.empty() && (!s.net || !s.fault))
    return "partitions require the net model and the fault layer";
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
  if (s.autoscale && s.min_powered < 1) return "min_powered must be >= 1";
  return "";
}

core::ExperimentSpec to_spec(const ChaosSchedule& s) {
  const std::string problem = validate(s);
  if (!problem.empty())
    throw std::invalid_argument("chaos schedule: " + problem);

  core::ExperimentSpec spec;
  spec.profile = profile_by_name(s.profile);
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
    spec.flip_profile = profile_by_name(s.flip_profile);
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

std::string to_json(const ChaosSchedule& s) {
  using harness::format_number;
  std::ostringstream out;
  const auto num = [&](const char* key, double v, bool tail = true) {
    out << "  \"" << key << "\": " << format_number(v) << (tail ? ",\n" : "\n");
  };
  const auto boolean = [&](const char* key, bool v, bool tail = true) {
    out << "  \"" << key << "\": " << (v ? "true" : "false")
        << (tail ? ",\n" : "\n");
  };
  const auto str = [&](const char* key, const std::string& v,
                       bool tail = true) {
    out << "  \"" << key << "\": \"" << harness::json_escape(v) << "\""
        << (tail ? ",\n" : "\n");
  };
  out << "{\n";
  str("format", kFormatTag);
  num("version", kFormatVersion);
  num("seed", static_cast<double>(s.seed));
  num("horizon_s", s.horizon_s);
  num("warmup_s", s.warmup_s);
  num("p", s.p);
  num("m", s.m);
  num("lambda", s.lambda);
  str("profile", s.profile);
  boolean("bursty", s.bursty);
  boolean("diurnal", s.diurnal);
  num("diurnal_period_s", s.diurnal_period_s);
  num("diurnal_amplitude", s.diurnal_amplitude);
  num("flip_at_s", s.flip_at_s);
  str("flip_profile", s.flip_profile);
  boolean("fault", s.fault);
  out << "  \"crashes\": [";
  for (std::size_t i = 0; i < s.crashes.size(); ++i) {
    const CrashEpisode& c = s.crashes[i];
    out << (i > 0 ? ", " : "") << "{\"at_s\": " << format_number(c.at_s)
        << ", \"node\": " << c.node
        << ", \"recover_s\": " << format_number(c.recover_s) << "}";
  }
  out << "],\n";
  num("crash_mttf_s", s.crash_mttf_s);
  num("crash_mttr_s", s.crash_mttr_s);
  num("degrade_mttf_s", s.degrade_mttf_s);
  num("degrade_mttr_s", s.degrade_mttr_s);
  num("degrade_cpu_factor", s.degrade_cpu_factor);
  num("degrade_disk_factor", s.degrade_disk_factor);
  num("stall_period_s", s.stall_period_s);
  num("stall_len_s", s.stall_len_s);
  boolean("net", s.net);
  num("net_loss", s.net_loss);
  num("net_latency_jitter_s", s.net_latency_jitter_s);
  num("net_reorder", s.net_reorder);
  boolean("quorum", s.quorum);
  num("stale_max_age_s", s.stale_max_age_s);
  num("load_report_interval_s", s.load_report_interval_s);
  out << "  \"partitions\": [";
  for (std::size_t i = 0; i < s.partitions.size(); ++i) {
    const PartitionWindow& w = s.partitions[i];
    out << (i > 0 ? ", " : "") << "{\"from_s\": " << format_number(w.from_s)
        << ", \"until_s\": " << format_number(w.until_s)
        << ", \"cut\": " << w.cut << "}";
  }
  out << "],\n";
  num("deadline_static_s", s.deadline_static_s);
  num("deadline_dynamic_s", s.deadline_dynamic_s);
  str("shed_policy", s.shed_policy);
  num("overload_retries", s.overload_retries);
  boolean("breakers", s.breakers);
  boolean("degraded_mode", s.degraded_mode);
  boolean("ctrl", s.ctrl);
  num("ctrl_interval_s", s.ctrl_interval_s);
  num("theta_slew", s.theta_slew);
  boolean("autoscale", s.autoscale);
  num("min_powered", s.min_powered);
  boolean("retarget_masters", s.retarget_masters);
  boolean("slow_health", s.slow_health);
  boolean("slow_health_exclude", s.slow_health_exclude);
  boolean("hedge", s.hedge);
  num("hedge_delay_s", s.hedge_delay_s);
  boolean("spans", s.spans, /*tail=*/false);
  out << "}\n";
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

  ChaosSchedule defaults;
  ChaosSchedule s;
  s.seed = static_cast<std::uint64_t>(whole(doc, "seed", 1, kMaxSeed));
  s.horizon_s = doc.get_number("horizon_s", defaults.horizon_s);
  s.warmup_s = doc.get_number("warmup_s", defaults.warmup_s);
  s.p = static_cast<int>(whole(doc, "p", defaults.p, kMaxInt));
  s.m = static_cast<int>(whole(doc, "m", defaults.m, kMaxInt));
  s.lambda = doc.get_number("lambda", defaults.lambda);
  s.profile = doc.get_string("profile", defaults.profile);
  s.bursty = doc.get_bool("bursty", defaults.bursty);
  s.diurnal = doc.get_bool("diurnal", defaults.diurnal);
  s.diurnal_period_s =
      doc.get_number("diurnal_period_s", defaults.diurnal_period_s);
  s.diurnal_amplitude =
      doc.get_number("diurnal_amplitude", defaults.diurnal_amplitude);
  s.flip_at_s = doc.get_number("flip_at_s", defaults.flip_at_s);
  s.flip_profile = doc.get_string("flip_profile", defaults.flip_profile);
  s.fault = doc.get_bool("fault", defaults.fault);
  if (const JsonValue* crashes = doc.find("crashes")) {
    if (!crashes->is(JsonValue::Kind::kArray))
      throw std::invalid_argument("chaos schedule: \"crashes\" not an array");
    for (const JsonValue& c : crashes->array) {
      CrashEpisode e;
      e.at_s = c.get_number("at_s", 0.0);
      e.node = static_cast<int>(
          whole(c, "node", 0, kMaxInt,
                "crashes[" + std::to_string(s.crashes.size()) + "]."));
      e.recover_s = c.get_number("recover_s", 0.0);
      s.crashes.push_back(e);
    }
  }
  s.crash_mttf_s = doc.get_number("crash_mttf_s", defaults.crash_mttf_s);
  s.crash_mttr_s = doc.get_number("crash_mttr_s", defaults.crash_mttr_s);
  s.degrade_mttf_s = doc.get_number("degrade_mttf_s", defaults.degrade_mttf_s);
  s.degrade_mttr_s = doc.get_number("degrade_mttr_s", defaults.degrade_mttr_s);
  s.degrade_cpu_factor =
      doc.get_number("degrade_cpu_factor", defaults.degrade_cpu_factor);
  s.degrade_disk_factor =
      doc.get_number("degrade_disk_factor", defaults.degrade_disk_factor);
  s.stall_period_s = doc.get_number("stall_period_s", defaults.stall_period_s);
  s.stall_len_s = doc.get_number("stall_len_s", defaults.stall_len_s);
  s.net = doc.get_bool("net", defaults.net);
  s.net_loss = doc.get_number("net_loss", defaults.net_loss);
  s.net_latency_jitter_s =
      doc.get_number("net_latency_jitter_s", defaults.net_latency_jitter_s);
  s.net_reorder = doc.get_number("net_reorder", defaults.net_reorder);
  s.quorum = doc.get_bool("quorum", defaults.quorum);
  s.stale_max_age_s =
      doc.get_number("stale_max_age_s", defaults.stale_max_age_s);
  s.load_report_interval_s = doc.get_number("load_report_interval_s",
                                            defaults.load_report_interval_s);
  if (const JsonValue* partitions = doc.find("partitions")) {
    if (!partitions->is(JsonValue::Kind::kArray))
      throw std::invalid_argument(
          "chaos schedule: \"partitions\" not an array");
    for (const JsonValue& w : partitions->array) {
      PartitionWindow window;
      window.from_s = w.get_number("from_s", 0.0);
      window.until_s = w.get_number("until_s", 0.0);
      window.cut = static_cast<int>(
          whole(w, "cut", 1, kMaxInt,
                "partitions[" + std::to_string(s.partitions.size()) + "]."));
      s.partitions.push_back(window);
    }
  }
  s.deadline_static_s =
      doc.get_number("deadline_static_s", defaults.deadline_static_s);
  s.deadline_dynamic_s =
      doc.get_number("deadline_dynamic_s", defaults.deadline_dynamic_s);
  s.shed_policy = doc.get_string("shed_policy", defaults.shed_policy);
  s.overload_retries = static_cast<int>(
      whole(doc, "overload_retries", defaults.overload_retries, kMaxInt));
  s.breakers = doc.get_bool("breakers", defaults.breakers);
  s.degraded_mode = doc.get_bool("degraded_mode", defaults.degraded_mode);
  s.ctrl = doc.get_bool("ctrl", defaults.ctrl);
  s.ctrl_interval_s =
      doc.get_number("ctrl_interval_s", defaults.ctrl_interval_s);
  s.theta_slew = doc.get_number("theta_slew", defaults.theta_slew);
  s.autoscale = doc.get_bool("autoscale", defaults.autoscale);
  s.min_powered = static_cast<int>(
      whole(doc, "min_powered", defaults.min_powered, kMaxInt));
  s.retarget_masters =
      doc.get_bool("retarget_masters", defaults.retarget_masters);
  s.slow_health = doc.get_bool("slow_health", defaults.slow_health);
  s.slow_health_exclude =
      doc.get_bool("slow_health_exclude", defaults.slow_health_exclude);
  s.hedge = doc.get_bool("hedge", defaults.hedge);
  s.hedge_delay_s = doc.get_number("hedge_delay_s", defaults.hedge_delay_s);
  s.spans = doc.get_bool("spans", defaults.spans);
  return s;
}

}  // namespace wsched::check
