// wsched_perf: one pass of one benchmark workload, or the layer probes,
// printing every metric as `name value unit`. bench.py drives it; see
// README.md.
//
//   wsched_perf --workload W [--seed S] [--smoke] [--out-dir D]
//               [--traced --trace-out F] [--setup-only]
//   wsched_perf --probes [--seed S] [--out-dir D]
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <string>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace wsched_perf;

int usage(const char* problem) {
  std::fprintf(stderr,
               "wsched_perf: %s\n"
               "usage: wsched_perf --workload W [--seed S] [--smoke] "
               "[--out-dir D] [--traced --trace-out F] [--setup-only]\n"
               "       wsched_perf --probes [--seed S] [--out-dir D]\n",
               problem);
  return 2;
}

bool parse_seed(const char* text, std::uint64_t& seed) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  seed = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

void print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.out_dir = "wsched_perf_out";
  bool traced = false;
  bool setup_only = false;
  bool probes = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--probes") {
      probes = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_seed(argv[++i], options.seed))
        return usage("--seed takes a non-negative integer");
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage(("unknown or incomplete argument '" + arg + "'").c_str());
    }
  }
  if (!probes && options.workload.empty()) return usage("--workload is required");
  if (traced && trace_out.empty()) return usage("--traced needs --trace-out");

  try {
    if (traced) SpanLog::instance().enable();
    if (probes) {
      const bool made = std::filesystem::create_directories(options.out_dir);
      print(run_probes(options));
      if (made) std::filesystem::remove(options.out_dir);
      return 0;
    }
    const Plan plan = make_plan(options);
    if (setup_only) {
      // CPU time since the process began (exec, loader, static init, argument
      // parsing, plan); CPU rather than wall time, because on a shared host
      // the wall time of a millisecond-long launch mostly measures how long
      // the scheduler made it wait.
      timespec cpu{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
      print({{"setup_s",
              static_cast<double>(cpu.tv_sec) + 1e-9 * static_cast<double>(cpu.tv_nsec),
              "s"}});
      return 0;
    }
    const bool made = std::filesystem::create_directories(options.out_dir);
    const PassReport report = run_pass(plan);
    if (made) std::filesystem::remove(options.out_dir);
    std::printf("workload %s\nseed %" PRIu64 "\n", options.workload.c_str(),
                options.seed);
    print(report.metrics);
    std::printf("result_hash %016" PRIx64 " fnv1a\n", report.result_hash);
    for (const std::string& failure : report.failures)
      std::fprintf(stderr, "failed %s\n", failure.c_str());
    if (traced)
      SpanLog::instance().write_json(trace_out, options.workload,
                                     options.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsched_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
