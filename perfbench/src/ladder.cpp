// The per-layer ladder: timed loops of calls into the public functions of
// sched, ptask, pj and flow. Each rung reports a cost per call; none of them
// instruments the program.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "flow/channel.hpp"
#include "pj/parallel.hpp"
#include "ptask/spawn.hpp"
#include "sched/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

using parc::sched::SubmitHint;
using parc::sched::WorkStealingPool;

PoolCounts pool_counts(const WorkStealingPool& p) {
  const WorkStealingPool::Stats s = p.stats();
  return PoolCounts{s.executed, s.stolen, s.parked, s.helped};
}

void pool_metrics(const PoolCounts& before, const PoolCounts& after,
                  Report& r) {
  const auto executed =
      static_cast<double>(std::max<std::uint64_t>(
          1, after.executed - before.executed));
  r.metric("sched.steal_frac",
           static_cast<double>(after.stolen - before.stolen) / executed,
           "frac");
  r.metric("sched.parks_per_1k",
           static_cast<double>(after.parked - before.parked) * 1000.0 /
               executed,
           "count");
  r.metric("sched.helped_frac",
           static_cast<double>(after.helped - before.helped) / executed,
           "frac");
}

void sched_rung(WorkStealingPool& pool, Report& r) {
  constexpr std::uint64_t kN = 100000;
  std::atomic<std::uint64_t> done{0};
  const auto job = [&done] { done.fetch_add(1, std::memory_order_relaxed); };
  const auto wait_for = [&](std::uint64_t n) {
    pool.help_while(
        [&] { return done.load(std::memory_order_acquire) < n; });
  };
  {
    // Submits from a thread outside the pool go to the injection queue.
    SpanLog::Scope sp(r.spans, "ladder.sched_submit");
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kN; ++i) pool.submit(job, SubmitHint::remote);
    r.metric("sched.submit_ns", static_cast<double>(now_ns() - t0) / kN, "ns");
    wait_for(kN);
  }
  {
    // Submits from a worker land on its own deque.
    SpanLog::Scope sp(r.spans, "ladder.sched_local_submit");
    done.store(0);
    std::atomic<std::int64_t> local_ns{0};
    pool.submit([&] {
      const std::int64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < kN; ++i) pool.submit(job, SubmitHint::local);
      local_ns.store(now_ns() - t0);
      job();
    });
    wait_for(kN + 1);
    r.metric("sched.local_submit_ns",
             static_cast<double>(local_ns.load()) / kN, "ns");
  }
  {
    // Wake-up: submit one job to a pool whose workers have parked and time
    // until it starts running.
    constexpr int kReps = 60;
    SpanLog::Scope sp(r.spans, "ladder.sched_wake");
    std::vector<double> wake_us;
    for (int i = 0; i < kReps; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::atomic<std::int64_t> started{0};
      const std::int64_t t0 = now_ns();
      pool.submit([&started] { started.store(now_ns()); }, SubmitHint::remote);
      while (started.load() == 0) {
      }
      wake_us.push_back(static_cast<double>(started.load() - t0) / 1e3);
    }
    r.metric("sched.wake_us", median(wake_us), "us");
  }
}

void ptask_rung(parc::ptask::Runtime& rt, Report& r) {
  {
    constexpr std::uint64_t kN = 20000;
    SpanLog::Scope sp(r.spans, "ladder.ptask_spawn_get");
    std::uint64_t sum = 0;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kN; ++i) {
      sum += parc::ptask::run(rt, [i] { return i; }).get();
    }
    r.metric("ptask.spawn_get_ns", static_cast<double>(now_ns() - t0) / kN,
             "ns");
    r.checks.expect(sum == kN * (kN - 1) / 2, "ptask spawn/get results");
  }
  {
    constexpr std::uint64_t kN = 100000;
    SpanLog::Scope sp(r.spans, "ladder.ptask_group");
    std::atomic<std::uint64_t> ran{0};
    const std::int64_t t0 = now_ns();
    parc::ptask::TaskGroup group(rt);
    for (std::uint64_t i = 0; i < kN; ++i) {
      group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    r.metric("ptask.group_task_ns", static_cast<double>(now_ns() - t0) / kN,
             "ns");
    r.checks.expect(ran.load() == kN, "ptask task group ran every task");
  }
}

void pj_rung(Report& r) {
  constexpr std::size_t kThreads = 3;
  {
    constexpr int kN = 200;
    SpanLog::Scope sp(r.spans, "ladder.pj_region");
    std::atomic<int> members{0};
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kN; ++i) {
      parc::pj::region(kThreads, [&members](parc::pj::Team&) {
        members.fetch_add(1, std::memory_order_relaxed);
      });
    }
    r.metric("pj.region_us", static_cast<double>(now_ns() - t0) / 1e3 / kN,
             "us");
    r.checks.expect(members.load() == kN * static_cast<int>(kThreads),
                    "pj region ran every member");
  }
  {
    constexpr std::int64_t kN = 1 << 22;
    SpanLog::Scope sp(r.spans, "ladder.pj_for");
    std::vector<std::int64_t> out(static_cast<std::size_t>(kN));
    const std::int64_t t0 = now_ns();
    parc::pj::parallel_for(kThreads, 0, kN, [&out](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = 3 * i;
    });
    r.metric("pj.for_ns_per_iter",
             static_cast<double>(now_ns() - t0) / static_cast<double>(kN),
             "ns");
    r.checks.expect(out.back() == 3 * (kN - 1), "pj parallel_for wrote all");
  }
}

namespace {

/// ns per element moved from one producer thread to this thread.
double channel_hop_ns(bool spsc) {
  constexpr std::uint64_t kN = 1 << 20;
  parc::flow::Channel<std::uint64_t> ch(
      parc::flow::ChannelOptions{.capacity = 1024, .stripes = 1, .spsc = spsc});
  const std::int64_t t0 = now_ns();
  std::thread producer([&ch] {
    for (std::uint64_t i = 0; i < kN; ++i) (void)ch.push(i);
    ch.close();
  });
  std::uint64_t v = 0;
  std::uint64_t n = 0;
  while (ch.pop(v)) ++n;
  const std::int64_t t1 = now_ns();
  producer.join();
  return n == kN ? static_cast<double>(t1 - t0) / kN : 0.0;
}

}  // namespace

void flow_rung(Report& r) {
  SpanLog::Scope sp(r.spans, "ladder.flow_hop");
  const double spsc = channel_hop_ns(true);
  const double mpmc = channel_hop_ns(false);
  r.checks.expect(spsc > 0.0 && mpmc > 0.0, "channel delivered every item");
  r.metric("flow.hop_spsc_ns", spsc, "ns");
  r.metric("flow.hop_mpmc_ns", mpmc, "ns");
}

}  // namespace perfbench
