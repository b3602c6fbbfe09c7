#include "core/rsrc.hpp"

#include <stdexcept>
#include <vector>

namespace wsched::core {

std::size_t pick_min_rsrc(double w, const std::vector<int>& candidates,
                          const LoadVec& load,
                          const std::vector<sim::NodeParams>* speeds,
                          const std::vector<double>* cost_scale, Rng& rng,
                          double tolerance) {
  if (candidates.empty())
    throw std::invalid_argument("pick_min_rsrc: no candidates");
  const std::size_t count = candidates.size();
  const double* scale = cost_scale == nullptr ? nullptr : cost_scale->data();

  // Evaluate every candidate's cost once into a scratch buffer, tracking
  // the true minimum as it goes.
  static thread_local std::vector<double> costs;
  costs.resize(count);
  double best_cost = 0.0;
  const auto keep = [&](std::size_t i, double cost) {
    costs[i] = scale == nullptr ? cost : scale[i] * cost;
    if (i == 0 || costs[i] < best_cost) best_cost = costs[i];
  };
  for (std::size_t i = 0; i < count; ++i)
    keep(i, rsrc_cost(w, load, candidates[i], speeds));

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
