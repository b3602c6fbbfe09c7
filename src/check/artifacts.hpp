// Artifact checker: the rules (listed in artifacts.cpp) a run's Chrome
// trace, probe CSV and span exemplar dump must satisfy, read from bytes.
// It shares only the readers with src/obs/ (check/json.hpp, util/csv.hpp),
// never the sinks' writers or name tables, so a writer that drifts from its
// schema fails here instead of agreeing with itself. Each check returns a
// summary, or the first rule broken as `violation` (counts then cover only
// what was read); malformed input is a violation, never a crash.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace wsched::check {

/// What an artifact must contain beyond its schema.
struct ArtifactRequirements {
  std::vector<std::string> phases;  ///< trace phases needing >= 1 event
  bool net = false;     ///< net-lane events and the net_* probe series
  bool ctrl = false;    ///< ctrl-lane events and the ctrl_* probe series
  bool spans = false;   ///< flow events, and every flow finished
  bool hedges = false;  ///< hedge instants, and the hedge bookkeeping
};

struct ArtifactCheck {
  std::string violation;  ///< first rule broken; empty when it passes
  // Trace: events, pid range, events per phase and category, flows (open:
  // no finish), requests announced by a hedge instant.
  std::size_t events = 0, flows = 0, open_flows = 0, hedges = 0;
  long long min_pid = 0, max_pid = 0;
  std::map<std::string, std::size_t> phases, categories;
  std::size_t samples = 0;               // probes
  long long k = 0;                       // exemplars: retained per class,
  std::size_t exemplars = 0, spans = 0;  // dumped, span-tree nodes

  bool ok() const { return violation.empty(); }
};

ArtifactCheck check_trace(const std::string& json,
                          const ArtifactRequirements& req = {});
ArtifactCheck check_probes(const std::string& csv,
                           const ArtifactRequirements& req = {});
ArtifactCheck check_exemplars(const std::string& json);

}  // namespace wsched::check
