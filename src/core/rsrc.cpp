#include "core/rsrc.hpp"

#include <stdexcept>
#include <vector>

namespace wsched::core {

double rsrc_cost(double w, const LoadInfo& load) {
  return w / load.cpu_idle_ratio + (1.0 - w) / load.disk_avail_ratio;
}

double rsrc_cost_heterogeneous(double w, const LoadInfo& load,
                               double cpu_speed, double disk_speed) {
  return w / (load.cpu_idle_ratio * cpu_speed) +
         (1.0 - w) / (load.disk_avail_ratio * disk_speed);
}

std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load,
                          const std::vector<sim::NodeParams>* speeds,
                          const std::vector<double>* cost_scale, Rng& rng,
                          double tolerance) {
  if (candidates.empty())
    throw std::invalid_argument("pick_min_rsrc: no candidates");
  const std::size_t count = candidates.size();
  const double* cpu = load.cpu_idle_data();
  const double* disk = load.disk_avail_data();
  const double* scale = cost_scale == nullptr ? nullptr : cost_scale->data();

  // Evaluate every candidate's cost once into a scratch buffer, tracking
  // the true minimum as it goes; the expressions match rsrc_cost /
  // rsrc_cost_heterogeneous term for term, so the near-tie comparisons
  // (and thus the RNG draws) are unchanged.
  static thread_local std::vector<double> costs;
  costs.resize(count);
  double best_cost = 0.0;
  const auto keep = [&](std::size_t i, double cost) {
    costs[i] = scale == nullptr ? cost : scale[i] * cost;
    if (i == 0 || costs[i] < best_cost) best_cost = costs[i];
  };
  if (speeds == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<std::size_t>(candidates[i]);
      keep(i, w / cpu[node] + (1.0 - w) / disk[node]);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<std::size_t>(candidates[i]);
      const sim::NodeParams& params = (*speeds)[node];
      keep(i, w / (cpu[node] * params.cpu_speed) +
                  (1.0 - w) / (disk[node] * params.disk_speed));
    }
  }

  // Reservoir-sample uniformly among near-ties.
  const double cutoff = best_cost * (1.0 + tolerance);
  std::size_t chosen = 0;
  std::size_t near_ties = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (costs[i] <= cutoff) {
      ++near_ties;
      if (rng.uniform_int(near_ties) == 0) chosen = i;
    }
  }
  return chosen;
}

std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load,
                          const std::vector<sim::NodeParams>* speeds,
                          Rng& rng, double tolerance) {
  return pick_min_rsrc(w, candidates, load, speeds, nullptr, rng, tolerance);
}

std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load, Rng& rng, double tolerance) {
  return pick_min_rsrc(w, candidates, load, nullptr, nullptr, rng, tolerance);
}

}  // namespace wsched::core
