// Deterministic chaos search (the FoundationDB-style hunt): sample N
// composed adversarial scenarios from consecutive seeds, replay each
// through the full simulator, and judge every run against the central
// invariant registry (src/check/). Any violation is automatically shrunk
// to a minimal repro schedule and written as a replayable JSON file.
//
//   --chaos-seeds N      seeds in the batch (default 50; 200 for --quick CI
//                        acceptance runs is fine — schedules are small)
//   --chaos-start S      first seed (default 1; batches are [S, S+N))
//   --chaos-horizon H    pin every schedule's horizon to H seconds
//                        (default: the generator's band — 4-6 s under
//                        --quick, 8-14 s otherwise)
//   --chaos-out PREFIX   write minimized repros as PREFIX-repro-<seed>.json
//                        (default "chaos")
//   --chaos-replay FILE  replay a schedule/repro file instead of searching
//                        (repeatable; exit 2 if any file is refused, else
//                        1 on an invariant violation, else 0)
//   --chaos-dump         write every sampled schedule as
//                        PREFIX-schedule-<seed>.json (no simulation) —
//                        the corpus-authoring helper
//   --chaos-shrink-attempts N  replay budget per shrink (default 160)
//
// The planted-bug drill rides the shared net knob: --net-quorum=false
// forces every sampled schedule to run membership without quorum gating,
// and the search must find and shrink a split-brain repro.
//
// Batches run thread-pool-parallel through the sweep harness
// (--jobs/--filter/--out/--list as everywhere else); determinism is per
// seed, so the batch artifact is byte-identical at any job count, and each
// row carries the FNV-1a hash of the run's canonical metrics row — the
// byte-identity witness a replay must reproduce.
//
// Exit status: nonzero when any seed (or replayed file) fails, as above —
// CI runs this binary as the chaos smoke test.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/json.hpp"
#include "check/runner.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

std::string join_violations(const check::InvariantReport& report) {
  std::string out;
  for (const check::Violation& v : report.violations) {
    if (!out.empty()) out += ";";
    out += v.invariant;
  }
  return out;
}

void print_report(const check::ChaosOutcome& outcome) {
  if (!outcome.error.empty()) {
    std::printf("  runner error: %s\n", outcome.error.c_str());
    return;
  }
  for (const check::Violation& v : outcome.report.violations)
    std::printf("  %s: %s\n", v.invariant.c_str(), v.detail.c_str());
  if (outcome.report.ok())
    std::printf("  ok (%zu invariants, artifact hash %016llx)\n",
                outcome.report.checked.size(),
                static_cast<unsigned long long>(outcome.artifact_hash));
}

int replay_files(const std::vector<std::string>& files) {
  int refused = 0, violated = 0;
  for (const std::string& path : files) {
    check::ChaosSchedule schedule;
    try {
      schedule = check::schedule_from_json(check::read_file(path));
    } catch (const std::exception& e) {
      std::printf("%s: unreadable schedule: %s\n", path.c_str(), e.what());
      ++refused;
      continue;
    }
    std::printf("%s (seed %llu):\n", path.c_str(),
                static_cast<unsigned long long>(schedule.seed));
    const check::ChaosOutcome outcome = check::run_schedule(schedule);
    print_report(outcome);
    if (!outcome.ok()) ++(outcome.error.empty() ? violated : refused);
  }
  return refused > 0 ? 2 : violated > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchCli cli(argc, argv);

  const std::vector<std::string> replays = cli.args.get_all("chaos-replay");
  if (!replays.empty()) return replay_files(replays);

  const long long seeds = cli.args.get_int("chaos-seeds", 50);
  const long long start = cli.args.get_int("chaos-start", 1);
  const double horizon = cli.args.get_double("chaos-horizon", 0.0);
  const std::string repro_prefix = cli.args.get("chaos-out", "chaos");
  const int shrink_attempts =
      static_cast<int>(cli.args.get_int("chaos-shrink-attempts", 160));
  // The planted-bug override: quorum off makes split-brain reachable.
  const bool quorum_off = cli.net.enabled && !cli.net.quorum;

  check::ChaosGenConfig gen =
      cli.quick ? check::ChaosGenConfig::quick() : check::ChaosGenConfig::full();
  if (horizon > 0.0) {
    gen.horizon_lo_s = horizon;
    gen.horizon_hi_s = horizon;
  }

  const auto schedule_for = [gen, quorum_off](std::uint64_t seed) {
    check::ChaosSchedule schedule = check::generate_schedule(seed, gen);
    if (quorum_off) schedule.quorum = false;
    return schedule;
  };

  if (cli.args.get_bool("chaos-dump", false)) {
    for (long long i = 0; i < seeds; ++i) {
      const std::uint64_t seed = static_cast<std::uint64_t>(start + i);
      const std::string path =
          repro_prefix + "-schedule-" + std::to_string(seed) + ".json";
      std::ofstream out(path, std::ios::binary);
      out << check::to_json(schedule_for(seed));
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  }

  // One seed per grid point; the sweep harness supplies the thread pool,
  // filters, listing and canonical batch artifacts.
  harness::SweepSpec sweep;
  sweep.name = "chaos";
  harness::Axis seed_axis{"seed", {}, false};
  for (long long i = 0; i < seeds; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(start + i);
    seed_axis.values.push_back({std::to_string(seed), {}, {}});
  }
  sweep.axes = {seed_axis};

  const auto eval = [&](const harness::GridPoint& point) {
    const std::uint64_t seed = std::stoull(point.coords.at(0).second);
    const check::ChaosOutcome outcome =
        check::run_schedule(schedule_for(seed));
    harness::ResultRow row;
    row.set_bool("ok", outcome.ok());
    row.set("checked",
            static_cast<long long>(outcome.report.checked.size()));
    row.set("violations", join_violations(outcome.report));
    row.set("error", outcome.error);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(outcome.artifact_hash));
    row.set("artifact_hash", hash);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;  // --list

  int violated = 0;
  int errors = 0;
  for (const harness::ResultRow& row : run->rows) {
    if (row.number("ok") != 0.0) continue;
    if (!row.text("error").empty())
      ++errors;
    else
      ++violated;
  }
  std::printf("\nChaos search: %zu seeds [%lld, %lld), %d violation(s), "
              "%d error(s)%s\n",
              run->rows.size(), start, start + seeds, violated, errors,
              quorum_off ? " [quorum OFF — planted-bug mode]" : "");

  if (violated + errors > 0) {
    Table table({"seed", "violations", "error"});
    for (const harness::ResultRow& row : run->rows) {
      if (row.number("ok") != 0.0) continue;
      table.row()
          .cell(row.text("seed"))
          .cell(row.text("violations"))
          .cell(row.text("error"));
    }
    std::fputs(table.str().c_str(), stdout);
  }

  // Shrink each violating seed to a minimal repro and persist it.
  for (const harness::ResultRow& row : run->rows) {
    if (row.number("ok") != 0.0 || !row.text("error").empty()) continue;
    const std::uint64_t seed = std::stoull(row.text("seed"));
    const std::string first =
        row.text("violations").substr(0, row.text("violations").find(';'));
    std::printf("\nshrinking seed %llu (%s)...\n",
                static_cast<unsigned long long>(seed), first.c_str());
    try {
      const check::ShrinkResult minimal =
          check::shrink(schedule_for(seed), first, shrink_attempts);
      const std::string path =
          repro_prefix + "-repro-" + std::to_string(seed) + ".json";
      std::ofstream out(path, std::ios::binary);
      out << check::to_json(minimal.schedule);
      std::printf("  %d/%d shrink steps accepted -> %s\n", minimal.accepted,
                  minimal.attempts, path.c_str());
    } catch (const std::exception& e) {
      std::printf("  shrink failed: %s\n", e.what());
    }
  }
  return violated + errors == 0 ? 0 : 1;
}
