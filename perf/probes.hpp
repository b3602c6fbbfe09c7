// Layer probes for the traced run. They do not depend on the workload: each
// times one layer through its public interface on inputs drawn from the
// seed, so every traced run reports the same set of layer numbers.
#pragma once

#include <vector>

#include "workloads.hpp"

namespace wsched_perf {

/// sim.engine_ns_per_event, sim.node_ns_per_job, core.rsrc_pick_ns,
/// model.theorem1_us, the
/// layer matrix (<layer>on_cost / <layer>extra_events for every runtime
/// layer) and the obs write breakdown. Files go to options.out_dir and are
/// removed again.
std::vector<Metric> run_probes(const Options& options);

}  // namespace wsched_perf
