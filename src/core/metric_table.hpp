// The one table of run outcomes.
//
// Every outcome a run reports is tallied once, in a RunResult field (or
// by the subsystem that owns it, copied into RunResult at run end). Each
// row below names where a metric is read from and which views show it:
//
//   - the sweep CSV/JSON column (harness::append_metric_group walks the
//     rows of one group in table order, so the table order is the column
//     order);
//   - the obs::CounterRegistry name, published once after the run by
//     publish_counters when the row's gate is on.
//
// A new metric is one row here. The value kind (u64, double, int, string)
// is the alternative its source returns.
#pragma once

#include <span>
#include <string>
#include <variant>

#include "obs/counters.hpp"

namespace wsched::core {

struct ExperimentResult;

/// Which append_* call writes a row's column.
enum class MetricGroup {
  kCore,    ///< append_metrics: the established sweep schema
  kLedger,  ///< submitted/completed_total, ahead of the net/ctrl/gray groups
  kNet,
  kCtrl,
  kGray,
};

/// When a row's counter is present in the registry.
enum class CounterGate {
  kAlways,        ///< whenever a registry is attached, even at zero
  kNetOn,         ///< net model on
  kCtrlOn,        ///< control plane on
  kSlowHealthOn,  ///< slow-health watchdog on
  kHedgeOn,       ///< hedged dispatch on
};

using MetricValue = std::variant<unsigned long long, double, int, std::string>;

struct Metric {
  const char* column;   ///< sweep column, or null
  const char* counter;  ///< registry counter name, or null
  MetricGroup group;
  CounterGate gate;
  MetricValue (*source)(const ExperimentResult&);
};

/// Every metric, in column order within each group.
std::span<const Metric> metric_table();

/// Adds each gated-on counter row's value to `registry` (`+=`, so a
/// registry shared across runs accumulates).
void publish_counters(const ExperimentResult& result,
                      obs::CounterRegistry& registry);

}  // namespace wsched::core
