// Tests for the discrete-event OS simulator: engine ordering, burst
// planning, the BSD-style MLFQ, the round-robin disk, the paging model and
// the Node state machine (single-job latency, timesharing, conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "sim/cpu_sched.hpp"
#include "sim/disk_sched.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"
#include "sim/node.hpp"
#include "sim/params.hpp"
#include "sim/process.hpp"
#include "trace/record.hpp"

namespace wsched::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    engine.schedule_at(100, [&order, i] { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  Time seen = -1;
  engine.schedule_at(50, [&] {
    engine.schedule_at(10, [&] { seen = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(seen, 50);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_after(5, recurse);
  };
  engine.schedule_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(engine.now(), 45);
}

TEST(Engine, StopHaltsExecution) {
  Engine engine;
  int ran = 0;
  engine.schedule_at(1, [&] {
    ++ran;
    engine.stop();
  });
  engine.schedule_at(2, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine engine;
  int ran = 0;
  engine.schedule_at(10, [&] { ++ran; });
  engine.schedule_at(100, [&] { ++ran; });
  engine.run_until(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.now(), 50);
  engine.run();
  EXPECT_EQ(ran, 2);
}

OsParams default_os() { return OsParams{}; }

TEST(PlanBursts, PureCpu) {
  const auto plan = plan_bursts(40 * kMillisecond, 1.0, default_os());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpu, 40 * kMillisecond);
  EXPECT_EQ(plan[0].io, 0);
}

TEST(PlanBursts, PureIoSplitsIntoCycles) {
  const auto plan = plan_bursts(40 * kMillisecond, 0.0, default_os());
  EXPECT_EQ(plan.size(), 5u);  // 40ms / 8ms target
  Time io_total = 0;
  for (const auto& cycle : plan) {
    EXPECT_EQ(cycle.cpu, 0);
    io_total += cycle.io;
  }
  EXPECT_EQ(io_total, 40 * kMillisecond);
}

TEST(PlanBursts, ConservesTotalsExactly) {
  for (double w : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (Time demand : {kMillisecond, 7 * kMillisecond, 133 * kMillisecond,
                        kSecond}) {
      const auto plan = plan_bursts(demand, w, default_os());
      Time total = 0;
      for (const auto& cycle : plan) total += cycle.cpu + cycle.io;
      EXPECT_EQ(total, demand) << "w=" << w << " demand=" << demand;
    }
  }
}

TEST(PlanBursts, ZeroDemand) {
  const auto plan = plan_bursts(0, 0.5, default_os());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpu + plan[0].io, 0);
}

TEST(CpuSched, PopsBestPriorityFirst) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process hog, fresh;
  hog.p_cpu = 100 * kMillisecond;  // level 10
  fresh.p_cpu = 0;                 // level 0
  sched.enqueue(&hog);
  sched.enqueue(&fresh);
  EXPECT_EQ(sched.pop_best(), &fresh);
  EXPECT_EQ(sched.pop_best(), &hog);
  EXPECT_EQ(sched.pop_best(), nullptr);
}

TEST(CpuSched, FifoWithinLevel) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b, c;
  sched.enqueue(&a);
  sched.enqueue(&b);
  sched.enqueue(&c);
  EXPECT_EQ(sched.pop_best(), &a);
  EXPECT_EQ(sched.pop_best(), &b);
  EXPECT_EQ(sched.pop_best(), &c);
}

TEST(CpuSched, LevelClampsAtTop) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process monster;
  monster.p_cpu = 100 * kSecond;
  EXPECT_EQ(sched.level_of(monster), os.priority_levels - 1);
}

TEST(CpuSched, PreemptsOnlyStrictlyBetter) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b;
  a.p_cpu = 0;
  b.p_cpu = 0;
  EXPECT_FALSE(sched.preempts(a, b));
  b.p_cpu = 50 * kMillisecond;
  EXPECT_TRUE(sched.preempts(a, b));
  EXPECT_FALSE(sched.preempts(b, a));
}

TEST(CpuSched, DecayFilterShrinks) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  const Time decayed1 = sched.decayed(100 * kMillisecond, 1);
  EXPECT_LT(decayed1, 100 * kMillisecond);
  // Higher load decays more slowly (BSD behaviour).
  const Time decayed8 = sched.decayed(100 * kMillisecond, 8);
  EXPECT_GT(decayed8, decayed1);
}

TEST(CpuSched, RebucketReflectsNewPcpu) {
  const OsParams os = default_os();
  CpuScheduler sched(os);
  Process a, b;
  a.p_cpu = 0;
  b.p_cpu = 200 * kMillisecond;
  sched.enqueue(&a);
  sched.enqueue(&b);
  // Invert the priorities and rebucket: b should now pop first.
  a.p_cpu = 200 * kMillisecond;
  b.p_cpu = 0;
  sched.rebucket_all();
  EXPECT_EQ(sched.pop_best(), &b);
  EXPECT_EQ(sched.pop_best(), &a);
}

TEST(CpuSched, InvalidLevelsThrow) {
  OsParams os = default_os();
  os.priority_levels = 0;
  EXPECT_THROW(CpuScheduler{os}, std::invalid_argument);
  os.priority_levels = 65;
  EXPECT_THROW(CpuScheduler{os}, std::invalid_argument);
}

TEST(DiskSched, RoundRobinOrder) {
  const OsParams os = default_os();
  DiskScheduler disk(os);
  Process a, b;
  a.io_left = 5 * kMillisecond;
  b.io_left = kMillisecond;
  disk.enqueue(&a);
  disk.enqueue(&b);
  EXPECT_EQ(disk.pop_next(), &a);
  EXPECT_EQ(disk.slice_for(a), os.io_page_access);
  EXPECT_EQ(disk.pop_next(), &b);
  EXPECT_EQ(disk.slice_for(b), kMillisecond);  // remainder < page access
  EXPECT_TRUE(disk.empty());
}

TEST(Memory, GrantAndRelease) {
  OsParams os = default_os();
  os.memory_pages = 100;
  MemoryManager memory(os);
  const auto alloc = memory.allocate(60, kSecond);
  EXPECT_EQ(alloc.granted, 60u);
  EXPECT_EQ(alloc.paging_io, 0);
  EXPECT_EQ(memory.free_pages(), 40u);
  memory.release(alloc.granted);
  EXPECT_EQ(memory.free_pages(), 100u);
}

TEST(Memory, ShortfallIncursPagingIo) {
  OsParams os = default_os();
  os.memory_pages = 100;
  MemoryManager memory(os);
  (void)memory.allocate(90, kSecond);
  const auto alloc = memory.allocate(30, kSecond);
  EXPECT_EQ(alloc.granted, 10u);  // only 10 pages left
  EXPECT_EQ(alloc.paging_io, 20 * os.io_page_access);
}

TEST(Memory, PagingPenaltyCapped) {
  OsParams os = default_os();
  os.memory_pages = 10;
  os.paging_penalty_cap = 2.0;
  MemoryManager memory(os);
  (void)memory.allocate(10, kSecond);
  const Time demand = 5 * kMillisecond;
  const auto alloc = memory.allocate(5000, demand);
  EXPECT_EQ(alloc.granted, 0u);
  EXPECT_EQ(alloc.paging_io, 2 * demand);  // capped, not 10 seconds
}

TEST(Memory, OverReleaseClamped) {
  OsParams os = default_os();
  os.memory_pages = 50;
  MemoryManager memory(os);
  (void)memory.allocate(20, kSecond);
  memory.release(9999);
  EXPECT_EQ(memory.used_pages(), 0u);
}

// --- Node-level behaviour ---

Job make_job(std::uint64_t id, Time demand, double w, bool dynamic,
             std::uint32_t pages = 4) {
  Job job;
  job.id = id;
  job.request.cls =
      dynamic ? trace::RequestClass::kDynamic : trace::RequestClass::kStatic;
  job.request.service_demand = demand;
  job.request.cpu_fraction = w;
  job.request.mem_pages = pages;
  job.cluster_arrival = 0;
  return job;
}

struct Completion {
  std::uint64_t id;
  Time at;
};

struct NodeHarness {
  Engine engine;
  OsParams os;
  std::unique_ptr<Node> node;
  std::vector<Completion> done;

  explicit NodeHarness(NodeParams params = {}) {
    node = std::make_unique<Node>(engine, os, params, 0);
    node->set_completion_callback([this](const Job& job, Time at) {
      done.push_back({job.id, at});
    });
  }
};

TEST(Node, SingleStaticJobLatencyEqualsDemandPlusSwitch) {
  NodeHarness h;
  // Pure-CPU static request, well under one quantum.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, kMillisecond, 1.0, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].at, kMillisecond + h.os.context_switch);
}

TEST(Node, DynamicJobPaysFork) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 10 * kMillisecond, 1.0, true)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  // 3ms fork + 10ms demand = 13ms of CPU; quantum splits add no time, only
  // context switches when another process intervenes (none here).
  EXPECT_EQ(h.done[0].at,
            13 * kMillisecond + h.os.context_switch);
}

TEST(Node, MixedJobAlternatesCpuAndIo) {
  NodeHarness h;
  // 16ms demand, half CPU half IO -> 1 cycle (8ms io target): 8ms CPU
  // then 8ms IO.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 16 * kMillisecond, 0.5, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].at, 16 * kMillisecond + h.os.context_switch);
  EXPECT_EQ(h.node->total_cpu_service(), 8 * kMillisecond);
  EXPECT_EQ(h.node->total_disk_service(), 8 * kMillisecond);
}

TEST(Node, TwoCpuJobsTimeshare) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 50 * kMillisecond, 1.0, false));
    h.node->submit(make_job(2, 50 * kMillisecond, 1.0, false));
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  // Both jobs finish near 100ms (plus switches): neither runs to completion
  // before the other starts.
  const Time last = std::max(h.done[0].at, h.done[1].at);
  const Time first = std::min(h.done[0].at, h.done[1].at);
  EXPECT_GT(first, 85 * kMillisecond);
  EXPECT_LE(last, 105 * kMillisecond);
}

TEST(Node, CpuAndIoOverlap) {
  NodeHarness h;
  // One pure-CPU and one pure-IO job: they overlap almost perfectly.
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 40 * kMillisecond, 1.0, false));
    h.node->submit(make_job(2, 40 * kMillisecond, 0.0, false));
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  const Time last = std::max(h.done[0].at, h.done[1].at);
  EXPECT_LT(last, 50 * kMillisecond);  // far less than 80ms serialized
}

TEST(Node, ShortJobNotStuckBehindHog) {
  NodeHarness h;
  // A 400ms CPU hog arrives first; a 1ms static request arrives at 50ms.
  h.engine.schedule_at(0, [&] { h.node->submit(make_job(1, 400 * kMillisecond, 1.0, false)); });
  h.engine.schedule_at(50 * kMillisecond, [&] { h.node->submit(make_job(2, kMillisecond, 1.0, false)); });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 2u);
  const auto& quick = h.done[0].id == 2 ? h.done[0] : h.done[1];
  // The MLFQ runs the fresh short job at the next quantum boundary: it
  // completes within ~12ms of its arrival, not after the hog's 400ms.
  EXPECT_LT(quick.at, 65 * kMillisecond);
}

TEST(Node, WorkConservation) {
  NodeHarness h;
  Time total_demand = 0;
  h.engine.schedule_at(0, [&] {
    for (int i = 0; i < 20; ++i) {
      const Time demand = (1 + i % 7) * 3 * kMillisecond;
      const double w = (i % 2) ? 0.7 : 0.3;
      h.node->submit(make_job(static_cast<std::uint64_t>(i), demand, w, false));
      total_demand += demand;
    }
  });
  h.engine.run();
  ASSERT_EQ(h.done.size(), 20u);
  // plan_bursts conserves demand exactly, so CPU + disk service time must
  // equal the sum of demands (rounding each split at worst by 1ns/cycle).
  const Time serviced =
      h.node->total_cpu_service() + h.node->total_disk_service();
  EXPECT_NEAR(static_cast<double>(serviced),
              static_cast<double>(total_demand), 40.0);
}

TEST(Node, BusyCountersMatchServiceTimes) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 30 * kMillisecond, 0.6, false));
    h.node->submit(make_job(2, 20 * kMillisecond, 0.4, false));
  });
  h.engine.run();
  const Time end = h.engine.now();
  EXPECT_EQ(h.node->cpu_busy_until(end),
            h.node->total_cpu_service() + h.node->total_context_switch());
  EXPECT_EQ(h.node->disk_busy_until(end), h.node->total_disk_service());
}

TEST(Node, MemoryReleasedAfterCompletion) {
  NodeHarness h;
  h.engine.schedule_at(0, [&] {
    h.node->submit(make_job(1, 5 * kMillisecond, 0.5, true, 500));
  });
  h.engine.run();
  EXPECT_EQ(h.node->memory().used_pages(), 0u);
  EXPECT_EQ(h.node->live_processes(), 0u);
}

TEST(Node, PagingShortfallDelaysCompletion) {
  OsParams small;
  small.memory_pages = 64;
  Engine engine;
  Node node(engine, small, NodeParams{}, 0);
  std::vector<Completion> done;
  node.set_completion_callback(
      [&](const Job& job, Time at) { done.push_back({job.id, at}); });
  engine.schedule_at(0, [&] {
    node.submit(make_job(1, 10 * kMillisecond, 1.0, false, 64));   // fills RAM
    node.submit(make_job(2, 10 * kMillisecond, 1.0, false, 32));   // pages
  });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  // Job 2's 32-page shortfall costs 32 * 2ms of paging I/O, capped at
  // 2 * demand = 20ms; with the CPU shared against job 1 it cannot finish
  // before ~30ms, while job 1 (resident) finishes much earlier.
  const auto& paged = done[0].id == 2 ? done[0] : done[1];
  const auto& resident = done[0].id == 1 ? done[0] : done[1];
  EXPECT_GT(paged.at, 29 * kMillisecond);
  EXPECT_LT(resident.at, paged.at);
}

TEST(Node, FasterCpuFinishesSooner) {
  NodeHarness slow(NodeParams{.cpu_speed = 1.0, .disk_speed = 1.0});
  NodeHarness fast(NodeParams{.cpu_speed = 2.0, .disk_speed = 1.0});
  for (auto* h : {&slow, &fast}) {
    h->engine.schedule_at(0, [h] {
      h->node->submit(make_job(1, 40 * kMillisecond, 1.0, false));
    });
    h->engine.run();
  }
  ASSERT_EQ(slow.done.size(), 1u);
  ASSERT_EQ(fast.done.size(), 1u);
  EXPECT_NEAR(static_cast<double>(fast.done[0].at),
              static_cast<double>(slow.done[0].at) / 2.0,
              static_cast<double>(kMillisecond));
}

TEST(Node, FasterDiskSpeedsIoJobs) {
  NodeHarness slow(NodeParams{.cpu_speed = 1.0, .disk_speed = 1.0});
  NodeHarness fast(NodeParams{.cpu_speed = 1.0, .disk_speed = 4.0});
  for (auto* h : {&slow, &fast}) {
    h->engine.schedule_at(0, [h] {
      h->node->submit(make_job(1, 40 * kMillisecond, 0.0, false));
    });
    h->engine.run();
  }
  EXPECT_LT(fast.done[0].at, slow.done[0].at / 3);
}

TEST(Engine, TiesBreakByInsertionOrderBeyondCalendarWindow) {
  // Times more than the calendar window (~1.07 simulated seconds) ahead
  // land in the overflow heap; FIFO-at-equal-time must survive the trip
  // through it and back into a bucket.
  Engine engine;
  constexpr Time kFar = 5'000'000'000;  // 5 s
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    engine.schedule_at(kFar, [&order, i] { order.push_back(i); });
  engine.schedule_at(10, [&order] { order.push_back(-1); });
  engine.run();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], i);
  EXPECT_EQ(engine.now(), kFar);
}

TEST(Engine, SameTimeInsertDuringDrainRunsAfterQueuedPeers) {
  // A handler scheduling at the current time must run after every event
  // already queued for that time (later sequence number), within the same
  // drain — not be lost or reordered ahead.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] {
    order.push_back(0);
    engine.schedule_at(100, [&order] { order.push_back(9); });
  });
  engine.schedule_at(100, [&order] { order.push_back(1); });
  engine.schedule_at(100, [&order] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(engine.now(), 100);
}

TEST(Engine, ScatteredTimesDrainInNondecreasingOrder) {
  // Stress the bucket ring + overflow heap with pseudo-random times
  // spanning several window lengths; order must be globally sorted.
  Engine engine;
  std::vector<Time> seen;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const Time t = static_cast<Time>(x % 4'000'000'000ull);
    engine.schedule_at(t, [&seen, &engine] { seen.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_LE(seen[i - 1], seen[i]) << "at event " << i;
  EXPECT_EQ(engine.events_processed(), static_cast<std::uint64_t>(kEvents));
}

TEST(Engine, RunUntilThenLaterSchedulesStaySorted) {
  // run_until parks the drain cursor mid-bucket; later schedule_at calls
  // both before and after the parked point must still drain in order.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1'000'000, [&order] { order.push_back(1); });
  engine.schedule_at(3'000'000'000, [&order] { order.push_back(4); });
  engine.run_until(2'000'000);
  EXPECT_EQ(order, (std::vector<int>{1}));
  engine.schedule_at(2'500'000, [&order] { order.push_back(2); });
  engine.schedule_at(2'000'000'000, [&order] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, RunUntilPastWindowThenSchedulesStayOrdered) {
  // run_until() on an empty calendar parks now() arbitrarily far ahead of
  // the last drained bucket. When the gap exceeds the calendar window
  // (2048 buckets ~ 1.07 simulated seconds), a stale cursor used to make
  // next_nonempty_after() resolve the next event to a bucket index in the
  // wrong window, so a mid-drain same-bucket insert missed the sorted
  // insertion path and dispatched out of (t, seq) order.
  Engine engine;
  std::vector<Time> seen;
  engine.run_until(5'000'000'000);  // 5 s: ~4.7 windows past bucket 0
  EXPECT_EQ(engine.now(), 5'000'000'000);
  engine.schedule_at(5'000'000'000, [&] {
    seen.push_back(engine.now());
    engine.schedule_at(5'000'000'500, [&] { seen.push_back(engine.now()); });
  });
  engine.schedule_at(5'000'001'000, [&] { seen.push_back(engine.now()); });
  engine.run();
  EXPECT_EQ(seen, (std::vector<Time>{5'000'000'000, 5'000'000'500,
                                     5'000'001'000}));
}

TEST(Engine, RunUntilWithOnlyOverflowPendingKeepsCursorFresh) {
  // Same stale-cursor shape, other trigger: run_until() stops short of an
  // event still parked in the overflow heap, leaving the ring empty and
  // now() more than a window ahead of the cursor. Later inserts around
  // now() must still drain in globally sorted order, ahead of the parked
  // overflow event.
  Engine engine;
  std::vector<Time> seen;
  engine.schedule_at(3'000'000'000, [&] { seen.push_back(engine.now()); });
  engine.run_until(2'000'000'000);  // beyond the window, short of the event
  EXPECT_EQ(engine.now(), 2'000'000'000);
  engine.schedule_at(2'000'000'000, [&] {
    seen.push_back(engine.now());
    engine.schedule_at(2'000'000'500, [&] { seen.push_back(engine.now()); });
  });
  engine.schedule_at(2'000'001'000, [&] { seen.push_back(engine.now()); });
  engine.run();
  EXPECT_EQ(seen, (std::vector<Time>{2'000'000'000, 2'000'000'500,
                                     2'000'001'000, 3'000'000'000}));
}

TEST(Engine, CalendarReleasesBurstStorage) {
  // A ticker event fires every millisecond for 3.5 s (more than three
  // calendar windows of ~1.07 s) and schedules a burst of 300 events into
  // the next millisecond, so most ring buckets see a 300-event burst. A
  // drained bucket must give such storage back: what the calendar holds
  // follows what is pending, not every bucket's high-water mark (a bare
  // clear() keeps ~2048 x 512 slots here).
  constexpr int kBurst = 300;
  constexpr int kSteps = 3500;
  Engine engine;
  std::size_t max_pending = 0;
  std::size_t max_reserved = 0;
  std::uint64_t fired = 0;
  int step = 0;
  std::function<void()> tick = [&] {
    if (++step > kSteps) return;
    const Time at = engine.now() + kMillisecond;
    for (int i = 0; i < kBurst; ++i)
      engine.schedule_call(
          at, [](void* n) { ++*static_cast<std::uint64_t*>(n); }, &fired);
    engine.schedule_at(at, tick);
    max_pending = std::max(max_pending, engine.pending());
    max_reserved = std::max(max_reserved, engine.reserved_events());
  };
  engine.schedule_at(0, tick);
  engine.run();
  EXPECT_EQ(fired, std::uint64_t{kBurst} * kSteps);
  EXPECT_GE(max_pending, static_cast<std::size_t>(kBurst));
  EXPECT_LE(max_reserved, max_pending + Engine::kCalendarBuckets *
                                            Engine::kBucketKeepEvents);
  EXPECT_LE(engine.reserved_events(),
            Engine::kCalendarBuckets * Engine::kBucketKeepEvents);
}

TEST(Node, ProcessArenaReusesSlotsAcrossWaves) {
  // Sequential waves of jobs must recycle pooled Process slots (ASan
  // would flag a stale pointer if release/acquire mismatched) and leave
  // no live processes between waves.
  NodeHarness h;
  constexpr int kWaves = 5;
  constexpr int kPerWave = 64;
  for (int wave = 0; wave < kWaves; ++wave) {
    h.engine.schedule_at(h.engine.now(), [&h, wave] {
      for (int i = 0; i < kPerWave; ++i)
        h.node->submit(make_job(
            static_cast<std::uint64_t>(wave * kPerWave + i),
            (1 + i % 4) * kMillisecond, i % 2 ? 0.8 : 0.2, i % 3 == 0));
    });
    h.engine.run();
    EXPECT_EQ(h.node->live_processes(), 0u) << "wave " << wave;
  }
  EXPECT_EQ(h.done.size(), static_cast<std::size_t>(kWaves * kPerWave));
  EXPECT_EQ(h.node->completed(),
            static_cast<std::uint64_t>(kWaves * kPerWave));
}

TEST(Node, ManyJobsAllComplete) {
  NodeHarness h;
  constexpr int kJobs = 500;
  h.engine.schedule_at(0, [&] {
    for (int i = 0; i < kJobs; ++i)
      h.node->submit(make_job(static_cast<std::uint64_t>(i),
                              (1 + i % 5) * kMillisecond, 0.5, i % 3 == 0));
  });
  h.engine.run();
  EXPECT_EQ(h.done.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(h.node->completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(h.node->live_processes(), 0u);
}

/// One node driven by a fixed script. A trace sink makes the node run one
/// slice per event; without one, a process alone on its CPU or disk runs
/// its whole phase on one event.
struct ScriptedNode {
  Engine engine;
  OsParams os;
  obs::ChromeTraceSink sink;
  std::unique_ptr<Node> node;
  std::vector<Completion> done;
  std::vector<std::size_t> dropped;  ///< jobs returned by each crash
  std::vector<bool> aborted;         ///< abort() results, in order

  ScriptedNode(const OsParams& params, bool traced) : os(params) {
    node = std::make_unique<Node>(engine, os, NodeParams{1.3, 0.7}, 0);
    node->set_completion_callback(
        [this](const Job& job, Time at) { done.push_back({job.id, at}); });
    if (traced) node->set_obs({&sink, nullptr});
    script();
  }

  void at(double ms, std::function<void()> fn) {
    engine.schedule_at(static_cast<Time>(ms * 1e6), std::move(fn));
  }
  void submit(double ms, std::uint64_t id, Time demand, double w,
              bool dynamic) {
    at(ms, [=, this] { node->submit(make_job(id, demand, w, dynamic)); });
  }
  void abort(double ms, std::uint64_t id) {
    at(ms, [=, this] { aborted.push_back(node->abort(id)); });
  }

  void script() {
    // Lone long CPU and I/O phases, slowed and restored mid-slice.
    submit(0, 1, 150 * kMillisecond, 1.0, false);
    submit(0, 2, 60 * kMillisecond, 0.0, false);
    at(23.4, [this] { node->set_degradation(0.25, 0.5); });
    at(61.7, [this] { node->set_degradation(1.0, 1.0); });
    // Second arrivals mid-run: they preempt or cut the runs.
    submit(80.25, 3, 40 * kMillisecond, 0.5, true);
    submit(95.1, 4, 30 * kMillisecond, 0.1, false);
    abort(140.5, 1);
    // Aborts mid-quantum and mid-page of a lone run.
    submit(170.3, 5, 100 * kMillisecond, 1.0, false);
    abort(231.7, 5);
    submit(240.0, 6, 80 * kMillisecond, 0.0, false);
    abort(261.1, 6);
    // Crashes mid-quantum and mid-page, then cold restarts.
    submit(300.0, 7, 200 * kMillisecond, 1.0, false);
    submit(300.0, 8, 100 * kMillisecond, 0.0, false);
    at(347.77, [this] { dropped.push_back(node->crash().size()); });
    at(360.0, [this] { node->recover(); });
    submit(400.0, 9, 300 * kMillisecond, 0.9, true);
    submit(400.0, 10, 200 * kMillisecond, 0.2, false);
    at(452.3, [this] { node->set_degradation(0.5, 0.25); });
    submit(470.9, 11, 50 * kMillisecond, 0.7, true);
    at(555.5, [this] { dropped.push_back(node->crash().size()); });
    at(600.0, [this] { node->recover(); });
    // A mixed tail that runs to completion.
    for (std::uint64_t i = 0; i < 6; ++i)
      submit(610.0 + 7.3 * static_cast<double>(i), 12 + i,
             (20 + 15 * static_cast<Time>(i)) * kMillisecond,
             0.15 * static_cast<double>(i), i % 2 == 1);
    at(1990.0, [this] { node->set_degradation(1.0, 1.0); });
    at(1999.0, [this] { idle_before_ties = node->live_processes() == 0; });
    // Arrivals exactly at a slice end of a lone run. These events were
    // scheduled before the slice's own end event, so they run first: the
    // slice ending now is still in progress when they read it. A quantum
    // takes 7,692,308 ns at CPU speed 1.3, a page 2,857,143 ns at disk
    // speed 0.7; the CPU run starts after a 50 us context switch.
    submit(2000.0, 20, 200 * kMillisecond, 1.0, false);
    submit(2023.126924, 21, 30 * kMillisecond, 1.0, false);
    submit(2100.0, 22, 40 * kMillisecond, 0.0, false);
    submit(2105.714286, 23, 10 * kMillisecond, 0.0, false);
  }

  bool idle_before_ties = false;
};

void expect_same_node_state(const ScriptedNode& a, const ScriptedNode& b,
                            Time t) {
  const Node& x = *a.node;
  const Node& y = *b.node;
  EXPECT_EQ(x.cpu_busy_until(t), y.cpu_busy_until(t)) << t;
  EXPECT_EQ(x.disk_busy_until(t), y.disk_busy_until(t)) << t;
  const NodeCounts cx = x.counts();
  const NodeCounts cy = y.counts();
  EXPECT_EQ(cx.forks, cy.forks) << t;
  EXPECT_EQ(cx.context_switches, cy.context_switches) << t;
  EXPECT_EQ(cx.preemptions, cy.preemptions) << t;
  EXPECT_EQ(cx.cpu_slices, cy.cpu_slices) << t;
  EXPECT_EQ(cx.disk_slices, cy.disk_slices) << t;
  EXPECT_EQ(x.total_cpu_service(), y.total_cpu_service()) << t;
  EXPECT_EQ(x.total_disk_service(), y.total_disk_service()) << t;
  EXPECT_EQ(x.total_context_switch(), y.total_context_switch()) << t;
  EXPECT_EQ(x.live_processes(), y.live_processes()) << t;
  EXPECT_EQ(x.run_queue_length(), y.run_queue_length()) << t;
  EXPECT_EQ(x.disk_queue_length(), y.disk_queue_length()) << t;
}

void expect_slicing_is_invisible(const OsParams& os) {
  ScriptedNode sliced(os, true);
  ScriptedNode whole(os, false);
  for (Time t = 0; t <= 2400 * kMillisecond; t += kMillisecond) {
    sliced.engine.run_until(t);
    whole.engine.run_until(t);
    expect_same_node_state(sliced, whole, t);
    if (::testing::Test::HasFailure()) return;
  }
  sliced.engine.run();
  whole.engine.run();
  expect_same_node_state(sliced, whole, sliced.engine.now());
  EXPECT_EQ(sliced.engine.now(), whole.engine.now());
  ASSERT_EQ(sliced.done.size(), whole.done.size());
  for (std::size_t i = 0; i < sliced.done.size(); ++i) {
    EXPECT_EQ(sliced.done[i].id, whole.done[i].id) << i;
    EXPECT_EQ(sliced.done[i].at, whole.done[i].at) << i;
  }
  EXPECT_EQ(sliced.dropped, whole.dropped);
  EXPECT_EQ(sliced.aborted, whole.aborted);
  // The script reaches what it is meant to: completions, aborts of live
  // processes, crashes that drop work, and runs that skip slice ends.
  EXPECT_EQ(sliced.done.size(), 13u);
  EXPECT_TRUE(sliced.idle_before_ties);
  EXPECT_EQ(sliced.aborted, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(sliced.dropped, (std::vector<std::size_t>{2, 3}));
  EXPECT_LT(whole.engine.events_processed(),
            sliced.engine.events_processed());
}

TEST(Node, WholePhaseRunsMatchPerSliceEvents) {
  // Default OS: the second arrivals preempt the CPU hog.
  expect_slicing_is_invisible(OsParams{});
}

TEST(Node, WholePhaseRunsMatchPerSliceEventsWithoutPreemption) {
  // One priority level: no arrival preempts, so every second arrival cuts
  // the running process's run; long I/O phases make long disk runs.
  OsParams os;
  os.priority_levels = 1;
  os.io_cycle_target = 40 * kMillisecond;
  expect_slicing_is_invisible(os);
}

}  // namespace
}  // namespace wsched::sim
