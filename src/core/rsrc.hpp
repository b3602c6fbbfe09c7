// Relative server-site response cost (RSRC), Equation 5 of the paper:
//
//   RSRC = w / CPUIdleRatio + (1 - w) / DiskAvailRatio
//
// `w` is the request type's CPU cost share obtained by off-line sampling;
// when no sample is available the paper assumes w = 0.5 (the M/S-ns
// ablation). The dispatcher sends a dynamic request to the candidate node
// with minimum RSRC.
#pragma once

#include <cstddef>
#include <vector>

#include "core/load.hpp"
#include "sim/params.hpp"
#include "util/rng.hpp"

namespace wsched::core {

/// Equation 5, each availability multiplied by the node's relative
/// CPU/disk speed for heterogeneous clusters (the paper's [36] extension:
/// faster nodes look cheaper). Speeds of 1.0 give Equation 5 bit for bit,
/// since x * 1.0 == x. Ratios must be in (0, 1]; LoadMonitor guarantees a
/// floor. Every RSRC cost the dispatcher computes is this expression.
inline double rsrc_cost(double w, const LoadInfo& load,
                        double cpu_speed = 1.0, double disk_speed = 1.0) {
  return w / (load.cpu_idle_ratio * cpu_speed) +
         (1.0 - w) / (load.disk_avail_ratio * disk_speed);
}

/// rsrc_cost of candidate `node`, speed-weighted when `speeds` is
/// non-null.
inline double rsrc_cost(double w, const LoadVec& load, int node,
                        const std::vector<sim::NodeParams>* speeds) {
  const auto i = static_cast<std::size_t>(node);
  return speeds == nullptr
             ? rsrc_cost(w, load[i])
             : rsrc_cost(w, load[i], (*speeds)[i].cpu_speed,
                         (*speeds)[i].disk_speed);
}

/// Returns the index *into `candidates`* of the min-RSRC node.
///
/// Candidates whose cost is within `tolerance` of the minimum are treated
/// as indistinguishable and chosen among uniformly. The monitored ratios
/// are windowed averages with sampling noise, so exact argmin selection
/// would be false precision — and, worse, it makes every front end that
/// shares a load snapshot herd onto one node for a whole staleness window.
/// Near-tie randomization is what lets a fleet of independent dispatchers
/// spread load the way the paper's measured system evidently did.
std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load, Rng& rng,
                          double tolerance = 0.30);

/// Speed-aware variant for heterogeneous clusters: costs divide by each
/// node's CPU/disk speed factors (null `speeds` falls back to Equation 5).
std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load,
                          const std::vector<sim::NodeParams>* speeds,
                          Rng& rng, double tolerance = 0.30);

/// Staleness-aware variant: each candidate's cost is multiplied by
/// `cost_scale[i]` (indexed by candidate position, e.g. 1 + penalty * age)
/// before the min / near-tie comparison, so nodes whose load information
/// is old look less attractive. A null scale reduces to the plain pick.
std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load,
                          const std::vector<sim::NodeParams>* speeds,
                          const std::vector<double>* cost_scale, Rng& rng,
                          double tolerance = 0.30);

}  // namespace wsched::core
