// Tests for the chaos-search subsystem (src/check/): the strict JSON
// reader, the schedule generator's determinism and validity, JSON
// round-tripping, the invariant registry, replay determinism, the
// shrinker's contract (determinism + monotonicity), the planted-bug
// drill (--net-quorum=off must yield a findable, shrinkable split-brain
// repro), and replay of the committed corpus under tests/chaos_corpus/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "check/json.hpp"
#include "check/runner.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "core/experiment.hpp"
#include "util/time.hpp"

namespace wsched::check {
namespace {

// --- JSON reader --------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": true, "c": null, "d": "x\ny", "e": [1, 2, 3]})");
  ASSERT_TRUE(v.is(JsonValue::Kind::kObject));
  EXPECT_DOUBLE_EQ(v.get_number("a", 0.0), 1.5);
  EXPECT_TRUE(v.get_bool("b", false));
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is(JsonValue::Kind::kNull));
  EXPECT_EQ(v.get_string("d", ""), "x\ny");
  const JsonValue* e = v.find("e");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->is(JsonValue::Kind::kArray));
  EXPECT_EQ(e->array.size(), 3u);
  EXPECT_DOUBLE_EQ(e->array[1].number, 2.0);
}

TEST(Json, MissingMemberFallsBack) {
  const JsonValue v = parse_json(R"({"a": 1})");
  EXPECT_EQ(v.find("zzz"), nullptr);
  EXPECT_DOUBLE_EQ(v.get_number("zzz", -7.0), -7.0);
  EXPECT_EQ(v.get_string("zzz", "dflt"), "dflt");
}

TEST(Json, WrongKindThrows) {
  const JsonValue v = parse_json(R"({"a": "str"})");
  EXPECT_THROW(v.get_number("a", 0.0), std::invalid_argument);
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// The message `read` (parse_json, schedule_from_json) refuses `json` with
/// ("" if it reads).
template <class Read>
std::string refusal(Read read, const std::string& json) {
  try {
    read(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Json, MalformedInputThrows) {
  // Numbers outside the JSON grammar and raw control bytes in strings too,
  // each named with its byte offset.
  for (const char* bad :
       {"{", "{\"a\": }", "[1, 2,]", "{} trailing", "nul", "+1", "01", "-01",
        "1.", ".5", "-", "1e", "1e+", "1.e3", "\"a\tb\"", "\"\x01\"",
        "{\"k\x1f\": 1}"})
    EXPECT_NE(refusal(parse_json, bad).find(" at byte "), std::string::npos)
        << bad;
  EXPECT_EQ(refusal(parse_json, "[1, 01]"), "json: malformed number at byte 5");
  EXPECT_EQ(refusal(parse_json, "[\"ab\nc\"]"),
            "json: raw control character in string at byte 4");
  // Valid numbers; integer literals below 2^53 are marked exact.
  for (const char* good : {"0", "-0", "10", "1.5", "-0.25e+3", "1E-2", "1e999"})
    EXPECT_EQ(refusal(parse_json, good), "") << good;
  EXPECT_TRUE(parse_json("-5").integral &&
              parse_json("9007199254740991").integral);
  EXPECT_FALSE(parse_json("5.0").integral || parse_json("5e0").integral ||
               parse_json("9007199254740992").integral);
}

TEST(Json, DeepNestingIsRejectedNotACrash) {
  // 64 levels parse; one more is refused with the depth and byte offset.
  const std::string ok = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(parse_json(ok).is(JsonValue::Kind::kArray));
  EXPECT_EQ(refusal(parse_json, std::string(65, '[') + std::string(65, ']')),
            "json: nesting deeper than 64 levels at byte 64");
  // A hostile file far deeper than any stack allows, objects included.
  EXPECT_THROW(parse_json(std::string(200000, '[')), std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), std::invalid_argument);
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  // Raw UTF-8 passes through unchanged: bytes >= 0x80 are not control bytes.
  EXPECT_EQ(parse_json(R"({"s": "éA"})").get_string("s", ""), "\xc3\xa9\x41");
  const JsonValue v = parse_json(R"({"s": "\u00e9\u0041\u20AC"})");
  EXPECT_EQ(v.get_string("s", ""), "\xc3\xa9" "A" "\xe2\x82\xac");
  for (const char* bad : {R"("\u00g1")", R"("\u-041")", R"("\u00")"})
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
}

// --- Schedule generator -------------------------------------------------

TEST(Generator, SameSeedIsByteIdentical) {
  const ChaosGenConfig cfg = ChaosGenConfig::quick();
  for (std::uint64_t seed : {1ull, 17ull, 9000ull}) {
    const std::string a = to_json(generate_schedule(seed, cfg));
    const std::string b = to_json(generate_schedule(seed, cfg));
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(Generator, DistinctSeedsDiffer) {
  const ChaosGenConfig cfg = ChaosGenConfig::quick();
  EXPECT_NE(to_json(generate_schedule(1, cfg)),
            to_json(generate_schedule(2, cfg)));
}

TEST(Generator, EverySampledScheduleValidates) {
  // The composition rules (autoscale x faults exclusive, partitions only
  // with net + faults, bounds on every knob) must hold by construction
  // for every seed, not just the ones CI happens to run.
  for (const ChaosGenConfig& cfg :
       {ChaosGenConfig::quick(), ChaosGenConfig::full()}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const ChaosSchedule s = generate_schedule(seed, cfg);
      EXPECT_EQ(validate(s), "") << "seed " << seed;
      EXPECT_FALSE(s.autoscale && s.fault) << "seed " << seed;
      if (!s.partitions.empty()) {
        EXPECT_TRUE(s.net && s.fault) << "seed " << seed;
      }
    }
  }
}

TEST(Generator, CoversTheFaultAndAutoscaleBranches) {
  const ChaosGenConfig cfg = ChaosGenConfig::quick();
  int faulty = 0, scaling = 0, partitioned = 0, hedged = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, cfg);
    faulty += s.fault;
    scaling += s.autoscale;
    partitioned += !s.partitions.empty();
    hedged += s.hedge;
  }
  EXPECT_GT(faulty, 40);
  EXPECT_GT(scaling, 5);
  EXPECT_GT(partitioned, 10);
  EXPECT_GT(hedged, 10);
}

TEST(Schedule, JsonRoundTripIsByteIdentical) {
  const ChaosGenConfig cfg = ChaosGenConfig::quick();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::string a = to_json(generate_schedule(seed, cfg));
    const std::string b = to_json(schedule_from_json(a));
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

// Every member of the schedule is one row of the file format's table: a
// row missing from it, or naming the wrong member, loses a non-default
// value on the way through the file.
TEST(Schedule, EveryFieldRoundTrips) {
  ChaosSchedule s;
  s.seed = 4242;
  s.horizon_s = 9.5;
  s.warmup_s = 1.25;
  s.p = 12;
  s.m = 3;
  s.lambda = 512.5;
  s.profile = "adl";
  s.bursty = true;
  s.diurnal = true;
  s.diurnal_period_s = 7.5;
  s.diurnal_amplitude = 0.625;
  s.flip_at_s = 4.75;
  s.flip_profile = "dec";
  s.fault = true;
  s.crashes = {{2.5, 3, 4.5}, {3.25, 11, 0.0}};
  s.crash_mttf_s = 20.5;
  s.crash_mttr_s = 1.5;
  s.degrade_mttf_s = 8.5;
  s.degrade_mttr_s = 2.5;
  s.degrade_cpu_factor = 0.3;
  s.degrade_disk_factor = 0.7;
  s.stall_period_s = 1.75;
  s.stall_len_s = 0.04;
  s.net = true;
  s.net_loss = 0.03;
  s.net_latency_jitter_s = 0.0015;
  s.net_reorder = 0.1;
  s.quorum = false;
  s.stale_max_age_s = 1.5;
  s.load_report_interval_s = 0.25;
  s.partitions = {{2.0, 3.5, 2}, {5.0, 6.0, 7}};
  s.deadline_static_s = 0.75;
  s.deadline_dynamic_s = 2.25;
  s.shed_policy = "stretch";
  s.overload_retries = 3;
  s.breakers = true;
  s.degraded_mode = true;
  s.ctrl = true;
  s.ctrl_interval_s = 0.75;
  s.theta_slew = 0.08;
  s.autoscale = true;
  s.min_powered = 4;
  s.retarget_masters = true;
  s.slow_health = true;
  s.slow_health_exclude = true;
  s.hedge = true;
  s.hedge_delay_s = 0.05;
  s.spans = true;
  // Every member line differs from the default schedule's.
  std::istringstream set(to_json(s)), unset(to_json(ChaosSchedule{}));
  std::string a, b;
  for (int line = 0; std::getline(set, a) && std::getline(unset, b); ++line) {
    if (line >= 3 && a != "}") {
      EXPECT_NE(a, b);
    }
  }
  const ChaosSchedule back = schedule_from_json(to_json(s));
  EXPECT_TRUE(back == s) << to_json(back);
}

TEST(Schedule, CorpusFilesRoundTripByteIdentically) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(WSCHED_CHAOS_CORPUS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string bytes = read_file(entry.path());
    EXPECT_EQ(to_json(schedule_from_json(bytes)), bytes) << entry.path();
    ++files;
  }
  EXPECT_GE(files, 5) << "corpus went missing";
}

TEST(Schedule, FromJsonRejectsWrongFormat) {
  EXPECT_THROW(schedule_from_json(R"({"format": "other", "version": 1})"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_json(
                   R"({"format": "wsched-chaos-schedule", "version": 99})"),
               std::invalid_argument);
}

TEST(Schedule, ValidateCatchesIllegalCompositions) {
  ChaosSchedule s;
  s.autoscale = true;
  s.ctrl = true;
  s.fault = true;
  EXPECT_NE(validate(s), "");

  ChaosSchedule retarget;
  retarget.retarget_masters = true;
  retarget.ctrl = true;
  retarget.fault = true;
  const std::string refused = validate(retarget);
  EXPECT_NE(refused.find("retarget_masters"), std::string::npos) << refused;
  EXPECT_NE(refused.find("fault"), std::string::npos) << refused;

  ChaosSchedule alone;  // retargeting runs only inside the autoscale plan
  alone.retarget_masters = alone.ctrl = true;
  EXPECT_EQ(validate(alone).rfind(
                "ctrl.retarget_masters requires ctrl.autoscale", 0),
            0u)
      << validate(alone);

  ChaosSchedule part;
  part.partitions.push_back({1.0, 2.0, 2});
  EXPECT_NE(validate(part), "");  // partitions need net + fault

  // ctrl's sub-fields reach the run only with ctrl on: autoscaling over the
  // fault layer stays refused when ctrl is off too.
  ChaosSchedule inert;
  inert.autoscale = inert.fault = true;
  EXPECT_NE(validate(inert), "");

  ChaosSchedule lam;
  lam.lambda = 0.0;
  EXPECT_NE(validate(lam), "");
}

std::string read_corpus(const std::string& name) {
  return read_file(std::string(WSCHED_CHAOS_CORPUS_DIR) + "/" + name);
}

/// `json` with the number value of `field` rewritten to `value`.
std::string with_number(std::string json, const std::string& field,
                        const std::string& value) {
  const std::string key = "\"" + field + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return json;
  const std::size_t from = at + key.size();
  json.replace(from, json.find_first_of(",}", from) - from, value);
  return json;
}

// A typo in a hand-edited repro used to run the default silently; the
// reader now refuses a member it does not know, naming it.
TEST(Schedule, UnknownMembersAreRefused) {
  const std::string corpus = read_corpus("seed-15.json");
  ASSERT_FALSE(corpus.empty());
  std::string typo = corpus;
  typo.insert(typo.find("\"net_loss\""), "\"net_los\": 0.1, ");
  EXPECT_EQ(refusal(schedule_from_json, typo),
            "chaos schedule: unknown member 'net_los'");
  std::string entry = corpus;
  entry.insert(entry.find("\"node\""), "\"nod\": 4, ");
  EXPECT_EQ(refusal(schedule_from_json, entry),
            "chaos schedule: unknown member 'crashes[0].nod'");
}

// The layer-composition rules have one home, core::composition_problem:
// ClusterSim refuses a spec that breaks one with "cluster: " + the message,
// and validate() refuses the schedule that lowers to it with the same
// message. A zero ctrl interval and a negative hedge delay used to pass
// validate() and be refused only by the cluster at run time.
TEST(Schedule, CompositionRulesMatchTheCluster) {
  struct Case {
    const char* rule;
    std::function<void(ChaosSchedule&)> schedule;
    std::function<void(core::ExperimentSpec&)> spec;
  };
  const Case cases[] = {
      {"network partitions require the fault layer",
       [](ChaosSchedule& s) {
         s.net = true;
         s.partitions.push_back({1.0, 2.0, 2});
       },
       [](core::ExperimentSpec& spec) {
         spec.net.enabled = true;
         spec.net.partitions.push_back(
             {from_seconds(1.0), from_seconds(2.0), {{0, 1}, {2, 3}}});
       }},
      {"ctrl interval must be > 0",
       [](ChaosSchedule& s) {
         s.ctrl = true;
         s.ctrl_interval_s = 0.0;
       },
       [](core::ExperimentSpec& spec) {
         spec.ctrl.enabled = true;
         spec.ctrl.interval_s = 0.0;
       }},
      {"autoscaling and the fault layer are mutually exclusive",
       [](ChaosSchedule& s) { s.ctrl = s.autoscale = s.fault = true; },
       [](core::ExperimentSpec& spec) {
         spec.ctrl.enabled = spec.ctrl.autoscale = spec.fault.enabled = true;
       }},
      {"ctrl.retarget_masters and fault.enabled are mutually exclusive",
       [](ChaosSchedule& s) { s.ctrl = s.retarget_masters = s.fault = true; },
       [](core::ExperimentSpec& spec) {
         spec.ctrl.enabled = spec.ctrl.retarget_masters = true;
         spec.fault.enabled = true;
       }},
      {"ctrl.retarget_masters requires ctrl.autoscale",
       [](ChaosSchedule& s) { s.ctrl = s.retarget_masters = true; },
       [](core::ExperimentSpec& spec) {
         spec.ctrl.enabled = spec.ctrl.retarget_masters = true;
       }},
      {"ctrl min_powered must be >= 1",
       [](ChaosSchedule& s) {
         s.ctrl = s.autoscale = true;
         s.min_powered = 0;
       },
       [](core::ExperimentSpec& spec) {
         spec.ctrl.enabled = spec.ctrl.autoscale = true;
         spec.ctrl.min_powered = 0;
       }},
      {"invalid hedge config",
       [](ChaosSchedule& s) {
         s.hedge = true;
         s.hedge_delay_s = -1.0;
       },
       [](core::ExperimentSpec& spec) {
         spec.hedge.enabled = true;
         spec.hedge.delay_s = -1.0;
       }},
  };
  const core::ExperimentSpec base = to_spec(ChaosSchedule{});
  for (const Case& c : cases) {
    core::ExperimentSpec spec = base;
    c.spec(spec);
    std::string cluster;
    try {
      core::run_experiment(spec);
    } catch (const std::invalid_argument& e) {
      cluster = e.what();
    }
    EXPECT_TRUE(starts_with(cluster, std::string("cluster: ") + c.rule))
        << c.rule << ": '" << cluster << "'";
    ChaosSchedule s;
    c.schedule(s);
    EXPECT_EQ("cluster: " + validate(s), cluster) << c.rule;
    const ChaosOutcome outcome = run_schedule(s);
    EXPECT_EQ(outcome.error, "chaos schedule: " + validate(s)) << c.rule;
  }
}

// A JSON 1e999 parses as infinity. A schedule carrying one in its rate or
// horizon used to pass validation and hang the replay inside the trace
// generator; it is now refused up front with the validation message.
TEST(Schedule, NonFiniteWorkloadIsRejected) {
  const std::string corpus = read_corpus("seed-15.json");
  ASSERT_FALSE(corpus.empty());
  for (const std::string field : {"lambda", "horizon_s", "warmup_s"}) {
    const ChaosSchedule s =
        schedule_from_json(with_number(corpus, field, "1e999"));
    EXPECT_EQ(validate(s), field + " must be finite");
    const ChaosOutcome outcome = run_schedule(s);
    EXPECT_FALSE(outcome.ok());
    EXPECT_NE(outcome.error.find(field + " must be finite"),
              std::string::npos)
        << outcome.error;
  }
  ChaosSchedule nan;
  nan.lambda = std::nan("");
  EXPECT_EQ(validate(nan), "lambda must be finite");
  nan = ChaosSchedule{};
  nan.horizon_s = std::nan("");
  EXPECT_EQ(validate(nan), "horizon_s must be finite");
}

// Event times and rates below the workload were checked only for order:
// a crash at +inf, a partition until +inf and a NaN jitter all passed, and
// to_spec() then converted the infinity to a Time. Every double field is
// now refused when it is not finite, naming the field.
TEST(Schedule, NonFiniteEventTimesAreRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  ChaosSchedule base;
  base.fault = true;
  base.net = true;
  ASSERT_EQ(validate(base), "");

  ChaosSchedule crash = base;
  crash.crashes.push_back({1.0, 1, 2.0});
  crash.crashes.push_back({inf, 1, 0.0});
  EXPECT_EQ(validate(crash), "crashes[1].at_s must be finite");
  crash.crashes[1] = {1.0, 1, inf};
  EXPECT_EQ(validate(crash), "crashes[1].recover_s must be finite");

  ChaosSchedule window = base;
  window.partitions.push_back({1.0, inf, 2});
  EXPECT_EQ(validate(window), "partitions[0].until_s must be finite");
  window.partitions[0] = {std::nan(""), 2.0, 2};
  EXPECT_EQ(validate(window), "partitions[0].from_s must be finite");

  ChaosSchedule jitter = base;
  jitter.net_latency_jitter_s = std::nan("");
  EXPECT_EQ(validate(jitter), "net_latency_jitter_s must be finite");
  ChaosSchedule hedge = base;
  hedge.hedge_delay_s = inf;
  EXPECT_EQ(validate(hedge), "hedge_delay_s must be finite");
  ChaosSchedule deadline = base;
  deadline.deadline_dynamic_s = -inf;
  EXPECT_EQ(validate(deadline), "deadline_dynamic_s must be finite");
  EXPECT_THROW(to_spec(jitter), std::invalid_argument);
}

// Integer fields used to be cast from the JSON double unchecked: "p": 8.5
// ran as p = 8 and "seed": -1 went through an undefined double-to-uint64
// cast. Both are refused at parse time, naming the field.
TEST(Schedule, FractionalOrNegativeIntegerFieldsAreRejected) {
  const std::string corpus = read_corpus("seed-15.json");
  ASSERT_FALSE(corpus.empty());
  const std::pair<std::string, std::string> cases[] = {
      {"p", "8.5"},         {"seed", "-1"},       {"seed", "1e300"},
      {"m", "1e10"},        {"overload_retries", "0.5"},
      {"min_powered", "-2"}};
  for (const auto& [field, value] : cases) {
    const std::string error =
        refusal(schedule_from_json, with_number(corpus, field, value));
    EXPECT_TRUE(starts_with(error, "chaos schedule: " + field +
                                       " must be a whole number"))
        << field << " = " << value << ": '" << error << "'";
  }
  // A crash node and a partition cut are named with their index.
  ChaosSchedule crash;
  crash.fault = true;
  crash.crashes.push_back({1.0, 1, 2.0});
  EXPECT_TRUE(starts_with(
      refusal(schedule_from_json, with_number(to_json(crash), "node", "1.7")),
      "chaos schedule: crashes[0].node must be a whole number"));
  ChaosSchedule part;
  part.fault = true;
  part.net = true;
  part.partitions.push_back({1.0, 2.0, 2});
  EXPECT_TRUE(starts_with(
      refusal(schedule_from_json, with_number(to_json(part), "cut", "2.5")),
      "chaos schedule: partitions[0].cut must be a whole number"));
  // Whole values still parse.
  EXPECT_EQ(refusal(schedule_from_json, with_number(corpus, "p", "9")), "");
}

TEST(Schedule, NegativeWarmupAndUnknownProfilesAreRejected) {
  ChaosSchedule s;
  s.warmup_s = -1.0;
  EXPECT_EQ(validate(s), "warmup_s must be >= 0");
  s = ChaosSchedule{};
  s.profile = "xyz";
  EXPECT_EQ(validate(s), "unknown profile 'xyz'");
  s = ChaosSchedule{};
  s.flip_profile = "xyz";
  EXPECT_EQ(validate(s), "unknown flip_profile 'xyz'");
  // A replayed corpus file with a negative warmup is refused, not run.
  const ChaosOutcome outcome = run_schedule(schedule_from_json(
      with_number(read_corpus("seed-15.json"), "warmup_s", "-1")));
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("warmup_s must be >= 0"), std::string::npos)
      << outcome.error;
}

// --- Invariant registry -------------------------------------------------

TEST(Registry, CatalogNamesAreStable) {
  const std::vector<std::string> names = InvariantRegistry::builtin().names();
  for (const char* expected :
       {"ledger-closure", "no-split-brain", "powered-floor", "span-closure",
        "theta-feasible", "monotone-time", "hedge-accounting",
        "energy-accounting"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Registry, CleanRunPassesAllApplicableInvariants) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 6;
  spec.m = 2;
  spec.lambda = 200;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 3.0;
  spec.warmup_s = 1.0;
  spec.kind = core::SchedulerKind::kMs;
  const core::ExperimentResult result = core::run_experiment(spec);
  const InvariantReport report = InvariantRegistry::builtin().check(spec, result);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.checked.size(), 4u);
}

TEST(Registry, RowLedgerHelperMatchesArithmetic) {
  harness::ResultRow closed;
  closed.set("submitted", 100.0);
  closed.set("completed_total", 97.0);
  closed.set("timeouts", 2.0);
  closed.set("shed", 1.0);
  closed.set("abandoned", 0.0);
  EXPECT_TRUE(InvariantRegistry::row_ledger_closed(closed));

  harness::ResultRow leak = closed;
  leak.set("completed_total", 96.0);
  EXPECT_FALSE(InvariantRegistry::row_ledger_closed(leak));

  // Rows without ledger columns (foreign sweeps) are vacuously closed.
  harness::ResultRow bare;
  bare.set("stretch", 1.5);
  EXPECT_TRUE(InvariantRegistry::row_ledger_closed(bare));
}

// --- Replay determinism -------------------------------------------------

TEST(Runner, SameScheduleYieldsSameArtifactHash) {
  const ChaosSchedule s = generate_schedule(13, ChaosGenConfig::quick());
  const ChaosOutcome a = run_schedule(s);
  const ChaosOutcome b = run_schedule(s);
  ASSERT_TRUE(a.ok()) << a.report.to_string() << a.error;
  EXPECT_EQ(a.artifact_hash, b.artifact_hash);
  EXPECT_NE(a.artifact_hash, 0u);
}

TEST(Runner, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), 12638187200555641996ull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

// --- Planted-bug drill + shrinker ---------------------------------------

// Scan seeds with the quorum gate forced off until the registry reports a
// split-brain; the chaos search must find the planted bug within a small
// seed budget or the whole approach is not pulling its weight.
ChaosSchedule find_split_brain_repro() {
  const ChaosGenConfig cfg = ChaosGenConfig::quick();
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    ChaosSchedule s = generate_schedule(seed, cfg);
    if (!s.net || !s.fault) continue;
    s.quorum = false;  // the planted bug
    const ChaosOutcome outcome = run_schedule(s);
    for (const Violation& v : outcome.report.violations)
      if (v.invariant == "no-split-brain") return s;
  }
  return ChaosSchedule{};  // sentinel: lambda stays default, caller asserts
}

TEST(Shrink, PlantedQuorumBugIsFoundAndShrunk) {
  const ChaosSchedule failing = find_split_brain_repro();
  ASSERT_TRUE(failing.net && !failing.quorum)
      << "no split-brain found in 64 quorum-off seeds";

  const ShrinkResult min = shrink(failing, "no-split-brain");
  EXPECT_EQ(min.invariant, "no-split-brain");
  EXPECT_GT(min.attempts, 0);

  // Monotonicity: the minimized schedule still validates and still
  // violates the same invariant.
  EXPECT_EQ(validate(min.schedule), "");
  const ChaosOutcome outcome = run_schedule(min.schedule);
  bool still_violates = false;
  for (const Violation& v : outcome.report.violations)
    still_violates |= v.invariant == "no-split-brain";
  EXPECT_TRUE(still_violates) << outcome.report.to_string();

  // The shrinker only ever removes chaos, never adds it.
  EXPECT_LE(min.schedule.crashes.size(), failing.crashes.size());
  EXPECT_LE(min.schedule.partitions.size(), failing.partitions.size());
  EXPECT_LE(min.schedule.lambda, failing.lambda + 1e-9);
  EXPECT_LE(min.schedule.horizon_s, failing.horizon_s + 1e-9);
  // A split-brain needs a partition; the shrinker must keep at least one.
  EXPECT_GE(min.schedule.partitions.size(), 1u);
}

TEST(Shrink, DeterministicMinimalSchedule) {
  const ChaosSchedule failing = find_split_brain_repro();
  ASSERT_TRUE(failing.net && !failing.quorum);
  const ShrinkResult a = shrink(failing, "no-split-brain");
  const ShrinkResult b = shrink(failing, "no-split-brain");
  EXPECT_EQ(to_json(a.schedule), to_json(b.schedule));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Shrink, RejectsNonFailingInput) {
  const ChaosSchedule green = generate_schedule(13, ChaosGenConfig::quick());
  EXPECT_THROW(shrink(green, "no-split-brain"), std::invalid_argument);
}

// --- Corpus replay ------------------------------------------------------

TEST(Corpus, EveryCommittedScheduleReplaysClean) {
  const std::filesystem::path dir(WSCHED_CHAOS_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const ChaosSchedule s = schedule_from_json(read_file(entry.path()));
    EXPECT_EQ(validate(s), "") << entry.path();
    const ChaosOutcome outcome = run_schedule(s);
    EXPECT_TRUE(outcome.ok())
        << entry.path() << ": " << outcome.report.to_string() << outcome.error;
    ++replayed;
  }
  EXPECT_GE(replayed, 5) << "corpus went missing";
}

}  // namespace
}  // namespace wsched::check
