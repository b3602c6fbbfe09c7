// Checks a run's Chrome trace, probe CSV and span exemplar dumps against
// the rules in src/check/artifacts.hpp. CI runs it on the smoke traces.
//
//   check_artifacts TRACE.json [--probes PROBES.csv] [--require-phase PH]...
//                   [--net] [--ctrl] [--spans] [--hedges]
//                   [--exemplars EXEMPLARS.json]...
//
// --net/--ctrl also require that lane's probe series; --spans refuses an
// unfinished flow; --hedges checks the hedge bookkeeping. Exit 0 with a
// summary per artifact, 1 naming the file and first rule broken, 2 on a
// usage error.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/artifacts.hpp"
#include "check/json.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  using namespace wsched::check;
  ArtifactRequirements req;
  std::vector<std::pair<std::string, char>> artifacts;  // path, kind
  try {
    const CliArgs args(argc, argv, {"probes", "require-phase", "exemplars"},
                       1, {"net", "ctrl", "spans", "hedges"});
    req = {args.get_all("require-phase"), args.get_bool("net", false),
           args.get_bool("ctrl", false), args.get_bool("spans", false),
           args.get_bool("hedges", false)};
    if (args.positional().size() != 1)
      throw std::invalid_argument("expects one TRACE.json");
    artifacts.emplace_back(args.positional()[0], 't');
    for (const std::string& path : args.get_all("probes"))
      artifacts.emplace_back(path, 'p');
    for (const std::string& path : args.get_all("exemplars"))
      artifacts.emplace_back(path, 'x');
  } catch (const std::invalid_argument& e) {
    usage_error(argv[0], e.what());
  }
  for (const auto& [path, kind] : artifacts) {
    ArtifactCheck c;
    try {
      const std::string bytes = read_file(path);
      c = kind == 't'   ? check_trace(bytes, req)
          : kind == 'p' ? check_probes(bytes, req)
                        : check_exemplars(bytes);
    } catch (const std::invalid_argument& e) {
      c.violation = e.what();
    }
    if (!c.ok()) {
      std::fprintf(stderr, "check_artifacts: FAIL: %s: %s\n", path.c_str(),
                   c.violation.c_str());
      return 1;
    }
    std::printf("check_artifacts: OK: %s: %zu events, %zu flows (%zu open), "
                "%zu hedges, %zu samples, %zu exemplars\n",
                path.c_str(), c.events, c.flows, c.open_flows, c.hedges,
                c.samples, c.exemplars);
  }
  return 0;
}
