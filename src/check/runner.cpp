#include "check/runner.hpp"

#include <exception>

#include "harness/sweep.hpp"
#include "sim/engine.hpp"

namespace wsched::check {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

ChaosOutcome run_schedule(const ChaosSchedule& schedule) {
  ChaosOutcome outcome;
  core::ExperimentSpec spec;
  try {
    spec = to_spec(schedule);
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }
  core::ExperimentResult result;
  try {
    result = core::run_experiment(spec);
  } catch (const sim::EngineGuardError& e) {
    outcome.engine_guard = true;
    outcome.report.checked.emplace_back("engine-guard");
    outcome.report.violations.push_back(
        Violation{"engine-guard", e.what()});
    return outcome;
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }

  outcome.report = InvariantRegistry::builtin().check(spec, result);
  outcome.report.checked.emplace_back("engine-guard");

  // The canonical artifact: one full-schema row, hashed for the
  // byte-identity contract (jobs=N replay must reproduce this exactly).
  outcome.row.set("seed", static_cast<unsigned long long>(schedule.seed));
  outcome.row.merge(harness::full_row(result));
  outcome.artifact_hash = fnv1a(harness::csv_string({outcome.row}));
  return outcome;
}

}  // namespace wsched::check
