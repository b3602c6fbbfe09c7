#include "core/metric_table.hpp"

#include "core/experiment.hpp"

namespace wsched::core {

namespace {

bool gate_on(CounterGate gate, const RunResult& run) {
  switch (gate) {
    case CounterGate::kAlways: return true;
    case CounterGate::kNetOn: return run.net_enabled;
    case CounterGate::kCtrlOn: return run.ctrl_enabled;
    case CounterGate::kSlowHealthOn: return run.slow_health_enabled;
    case CounterGate::kHedgeOn: return run.hedging_enabled;
  }
  return false;
}

// One accessor per row, over the ExperimentResult `e` being reported.
#define EXP(field) \
  [](const ExperimentResult& e) -> MetricValue { return e.field; }
#define RUN(field) \
  [](const ExperimentResult& e) -> MetricValue { return e.run.field; }

using enum MetricGroup;
using enum CounterGate;

constexpr Metric kMetrics[] = {
    {"scheduler", nullptr, kCore, kAlways, EXP(scheduler)},
    {"m", nullptr, kCore, kAlways, EXP(m_used)},
    {"stretch", nullptr, kCore, kAlways, RUN(metrics.stretch)},
    {"stretch_static", nullptr, kCore, kAlways, RUN(metrics.stretch_static)},
    {"stretch_dynamic", nullptr, kCore, kAlways, RUN(metrics.stretch_dynamic)},
    {"mean_response_s", nullptr, kCore, kAlways, RUN(metrics.mean_response_s)},
    {"p95_response_s", nullptr, kCore, kAlways, RUN(metrics.p95_response_s)},
    {"p99_response_s", nullptr, kCore, kAlways, RUN(metrics.p99_response_s)},
    {"max_stretch", nullptr, kCore, kAlways, RUN(metrics.max_stretch)},
    {"completed", nullptr, kCore, kAlways, RUN(metrics.completed)},
    {"cache_hit_ratio", nullptr, kCore, kAlways, RUN(cache_hit_ratio())},
    {"availability", nullptr, kCore, kAlways, RUN(availability)},
    {"redispatches", "fault.redispatches", kCore, kAlways, RUN(redispatches)},
    {"timeouts", "fault.timeouts", kCore, kAlways, RUN(timeouts)},
    {"promotions", "fault.promotions", kCore, kAlways, RUN(promotions)},
    {"node_crashes", nullptr, kCore, kAlways, RUN(node_crashes)},
    {"stretch_tail", nullptr, kCore, kAlways, RUN(metrics.stretch_tail)},
    {"stretch_disrupted", nullptr, kCore, kAlways,
     RUN(metrics.stretch_disrupted)},
    {"completed_disrupted", nullptr, kCore, kAlways,
     RUN(metrics.completed_disrupted)},
    {"theta_limit", nullptr, kCore, kAlways, RUN(theta_limit)},
    {"a_hat", nullptr, kCore, kAlways, RUN(a_hat)},
    {"r_hat", nullptr, kCore, kAlways, RUN(r_hat)},
    {"goodput_rps", nullptr, kCore, kAlways, RUN(goodput_rps)},
    {"slo_attainment", nullptr, kCore, kAlways, RUN(metrics.slo_attainment)},
    {"p95_stretch", nullptr, kCore, kAlways, RUN(metrics.p95_stretch)},
    {"p95_stretch_static", nullptr, kCore, kAlways,
     RUN(metrics.p95_stretch_static)},
    {"shed", "overload.shed", kCore, kAlways, RUN(shed)},
    {"abandoned", "overload.abandoned", kCore, kAlways, RUN(abandoned)},
    {"overload_retries", "overload.retries", kCore, kAlways,
     RUN(overload_retries)},
    {"breaker_trips", "overload.breaker_trips", kCore, kAlways,
     RUN(breaker_trips)},
    {"degraded_entries", "overload.degraded_entries", kCore, kAlways,
     RUN(degraded_entries)},
    // Counter-only outcomes of the request path and the node model.
    {nullptr, "dispatch.requests", kCore, kAlways, RUN(dispatch_requests)},
    {nullptr, "dispatch.remote", kCore, kAlways, RUN(dispatch_remote)},
    {nullptr, "dispatch.reservation_rejections", kCore, kAlways,
     RUN(reservation_rejections)},
    {nullptr, "cache.lookups", kCore, kAlways, RUN(cache_lookups)},
    {nullptr, "cache.hits", kCore, kAlways, RUN(cache_hits)},
    {nullptr, "reservation.updates", kCore, kAlways, RUN(reservation_updates)},
    {nullptr, "cpu.forks", kCore, kAlways, RUN(cpu_forks)},
    {nullptr, "cpu.context_switches", kCore, kAlways,
     RUN(cpu_context_switches)},
    {nullptr, "cpu.preemptions", kCore, kAlways, RUN(cpu_preemptions)},
    {nullptr, "cpu.slices", kCore, kAlways, RUN(cpu_slices)},
    {nullptr, "disk.slices", kCore, kAlways, RUN(disk_slices)},

    {"submitted", nullptr, kLedger, kAlways, RUN(submitted)},
    {"completed_total", nullptr, kLedger, kAlways, RUN(completed)},

    {"net_sent", "net.sent", kNet, kNetOn, RUN(net_sent)},
    {nullptr, "net.lost", kNet, kNetOn, RUN(net_wire_lost)},
    {nullptr, "net.partition_drops", kNet, kNetOn, RUN(net_partition_drops)},
    {"net_lost", nullptr, kNet, kNetOn, RUN(net_lost())},
    {"net_duplicates", "net.duplicates", kNet, kNetOn, RUN(net_duplicates)},
    {"net_rpc_retries", "net.rpc_retries", kNet, kNetOn, RUN(net_rpc_retries)},
    {"net_rpc_failures", "net.rpc_failures", kNet, kNetOn,
     RUN(net_rpc_failures)},
    {"net_reports", "net.reports", kNet, kNetOn, RUN(net_reports)},
    {"net_stale_fallbacks", "net.stale_fallbacks", kNet, kNetOn,
     RUN(net_stale_fallbacks)},
    {"net_partitions", "net.partitions", kNet, kNetOn, RUN(net_partitions)},
    {"net_stepdowns", "net.stepdowns", kNet, kNetOn, RUN(net_stepdowns)},
    {"net_split_brain_rounds", "net.split_brain_rounds", kNet, kNetOn,
     RUN(net_split_brain_rounds)},

    {"ctrl_retunes", "ctrl.retunes", kCtrl, kCtrlOn, RUN(ctrl_retunes)},
    {"ctrl_scale_ups", "ctrl.scale_ups", kCtrl, kCtrlOn, RUN(ctrl_scale_ups)},
    {"ctrl_scale_downs", "ctrl.scale_downs", kCtrl, kCtrlOn,
     RUN(ctrl_scale_downs)},
    {"ctrl_migrations", "ctrl.migrations", kCtrl, kCtrlOn,
     RUN(ctrl_migrations)},
    {"ctrl_retargets", "ctrl.retargets", kCtrl, kCtrlOn, RUN(ctrl_retargets)},
    {"ctrl_w_hat", nullptr, kCtrl, kCtrlOn, RUN(ctrl_w_hat)},
    {"ctrl_r_hat", nullptr, kCtrl, kCtrlOn, RUN(ctrl_r_hat)},
    {"energy_node_s", nullptr, kCtrl, kCtrlOn, RUN(energy_node_s)},
    {"powered_min", nullptr, kCtrl, kCtrlOn, RUN(powered_min)},

    {"degrade_events", nullptr, kGray, kAlways, RUN(degrade_events)},
    {"degraded_node_s", nullptr, kGray, kAlways, RUN(degraded_node_s)},
    {"slow_degraded", "slow_health.degraded", kGray, kSlowHealthOn,
     RUN(slow_degraded)},
    {"slow_recovered", "slow_health.recovered", kGray, kSlowHealthOn,
     RUN(slow_recovered)},
    {"hedges_launched", "hedge.launched", kGray, kHedgeOn,
     RUN(hedges_launched)},
    {"hedge_wins", "hedge.wins", kGray, kHedgeOn, RUN(hedge_wins)},
    {"hedge_cancellations", "hedge.cancelled", kGray, kHedgeOn,
     RUN(hedge_cancellations)},
    {"hedges_skipped", "hedge.skipped", kGray, kHedgeOn, RUN(hedges_skipped)},
};

#undef RUN
#undef EXP

}  // namespace

std::span<const Metric> metric_table() { return kMetrics; }

void publish_counters(const ExperimentResult& result,
                      obs::CounterRegistry& registry) {
  for (const Metric& metric : metric_table())
    if (metric.counter != nullptr && gate_on(metric.gate, result.run))
      *registry.handle(metric.counter) +=
          std::get<unsigned long long>(metric.source(result));
}

}  // namespace wsched::core
