// The benchmark's workloads. Each is one closed-loop pass over public calls
// of the library: a simulation run starts when the previous one finishes
// (paper-grid keeps two in flight through the sweep harness). README.md says
// why each workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "core/experiment.hpp"
#include "harness/sweep.hpp"

namespace wsched_perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;    ///< every workload at about 1/20 of its size
  std::string out_dir;   ///< the pass writes its artifacts here
};

/// One printed result line: `name value unit`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One opt-in runtime layer of the cluster, as the layer matrix and the
/// faulted-stack workload switch it on. Its probe metrics are `prefix` +
/// "on_cost" and `prefix` + "extra_events".
struct Layer {
  const char* prefix;
  void (*enable)(wsched::core::ExperimentSpec&);
};
const std::vector<Layer>& runtime_layers();

/// KSU, p=32, lambda=1000, M/S, every opt-in layer off.
wsched::core::ExperimentSpec base_spec(std::uint64_t seed, double horizon_s);

/// What a pass runs, expanded before the first timed call (the set-up).
struct Plan {
  enum class Kind { kSweep, kSingle, kChaos };
  Options options;
  Kind kind = Kind::kSingle;
  wsched::harness::SweepSpec sweep;                 ///< kSweep
  std::size_t grid_points = 0;                      ///< kSweep
  int jobs = 1;                                     ///< worker threads
  wsched::core::ExperimentSpec spec;                ///< kSingle
  std::vector<std::string> obs_files;               ///< kSingle: written by the run
  std::vector<wsched::check::ChaosSchedule> schedules;  ///< kChaos
};

/// Throws std::invalid_argument for an unknown workload name.
Plan make_plan(const Options& options);

struct PassReport {
  std::vector<Metric> metrics;
  std::uint64_t result_hash = 0;
  std::vector<std::string> failures;  ///< one line per failed run
};

/// Runs the timed pass, then (untimed) checks every run's invariants and
/// hashes what the pass wrote. When the span log is enabled it also times
/// the public sub-steps of each run (trace generation; for chaos-batch every
/// step of run_schedule) in separate calls after the pass.
PassReport run_pass(const Plan& plan);

}  // namespace wsched_perf
