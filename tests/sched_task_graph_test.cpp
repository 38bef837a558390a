// Coverage for the pool-aware task-graph primitives (sched/task_graph.hpp):
// JoinLatch waiting (helping and parked), the sense-reversing Barrier —
// including the team-size > worker-count regression the old cv-barrier
// would deadlock on — deep dependsOn chains, and a randomized traced DAG
// whose recorded critical path is cross-checked against the sim machine
// model (T1 = serial makespan, T∞ = unbounded-core makespan).
#include "sched/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "ptask/ptask.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace parc::sched {
namespace {

TEST(JoinLatch, StartsIdle) {
  JoinLatch j;
  EXPECT_TRUE(j.idle());
  EXPECT_EQ(j.outstanding(), 0u);
  j.wait(nullptr);  // must not block
}

TEST(JoinLatch, HelpingWaitDrainsPoolWork) {
  WorkStealingPool pool({2, 4, "jl-help"});
  JoinLatch j;
  std::atomic<int> ran{0};
  constexpr int kJobs = 64;
  j.add(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    pool.submit([&ran, &j] {
      ran.fetch_add(1, std::memory_order_relaxed);
      j.done();
    });
  }
  j.wait(&pool);
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_TRUE(j.idle());
}

TEST(JoinLatch, ParkedWaitWakesOnLastDone) {
  JoinLatch j;
  j.add(3);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    j.wait(nullptr);
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  j.done();
  j.done();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  j.done();
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST(JoinLatch, DoneNRetiresABatchInOneStep) {
  JoinLatch j;
  j.add(8);
  j.done_n(3);
  EXPECT_EQ(j.outstanding(), 5u);
  EXPECT_FALSE(j.idle());
  j.done_n(0);  // no-op by contract
  EXPECT_EQ(j.outstanding(), 5u);
  j.done_n(5);
  EXPECT_TRUE(j.idle());
  j.wait(nullptr);  // must not block
}

TEST(JoinLatch, DoneNWakesParkedWaiterOnExactZero) {
  JoinLatch j;
  j.add(4);
  std::atomic<bool> woke{false};
  std::thread waiter([&j, &woke] {
    j.wait(nullptr);  // no pool: parks on the count word
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  j.done_n(4);  // one RMW, one notify for the whole batch
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST(JoinLatch, ReusableAcrossCycles) {
  JoinLatch j;
  for (int cycle = 0; cycle < 3; ++cycle) {
    j.add(1);
    std::thread t([&j] { j.done(); });
    j.wait(nullptr);
    t.join();
    EXPECT_TRUE(j.idle());
  }
}

TEST(JoinLatch, IdleObserverSurvivesFinisherRace) {
  // The pj Team pattern: a waiter polls idle() (helping path) and destroys
  // the latch the instant it sees zero, while the finishing task's done()
  // may still be mid-return. done()'s last object access must be the count
  // fetch_sub itself — TSan caught the original epoch-word version touching
  // freed Team stack here. Many quick rounds to hand TSan/ASan the window.
  for (int round = 0; round < 200; ++round) {
    auto latch = std::make_unique<JoinLatch>();
    latch->add();
    std::thread finisher([&latch] { latch->done(); });
    while (!latch->idle()) {
    }
    latch.reset();  // destroy as Team's region-end teardown would
    finisher.join();
  }
}

TEST(JoinLatch, ErrorCaptureFirstWins) {
  JoinLatch j;
  EXPECT_FALSE(j.has_error());
  j.capture_error(std::make_exception_ptr(std::runtime_error("first")));
  j.capture_error(std::make_exception_ptr(std::runtime_error("second")));
  try {
    std::rethrow_exception(j.take_error());
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "first");
  }
  EXPECT_EQ(j.take_error(), nullptr);
}

// The satellite regression: more barrier parties than pool workers. Each
// arrival occupies a worker (or queues behind one); with the old cv-based
// barrier the workers would block forever while the remaining arrivals sat
// unstarted in the queues. The new barrier's arrivals help the pool, so
// queued arrivals run nested on the waiting workers and the barrier trips.
TEST(Barrier, TeamLargerThanWorkerCountCompletes) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kParties = 6;  // > kWorkers: the regression shape
  WorkStealingPool pool({kWorkers, 4, "barrier-regress"});
  Barrier barrier(kParties, &pool);
  std::atomic<std::size_t> through{0};
  JoinLatch join;
  join.add(kParties);
  for (std::size_t i = 0; i < kParties; ++i) {
    pool.submit([&] {
      barrier.arrive_and_wait();
      through.fetch_add(1, std::memory_order_relaxed);
      join.done();
    });
  }
  join.wait(&pool);
  EXPECT_EQ(through.load(), kParties);
}

// Same shape without an explicitly configured pool: a pooled arrival must
// auto-detect its own pool and help (pj teams construct their barrier with
// no pool handle).
TEST(Barrier, PooledArrivalHelpsWithoutConfiguredPool) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kParties = 5;
  WorkStealingPool pool({kWorkers, 4, "barrier-auto"});
  Barrier barrier(kParties);  // no help pool configured
  std::atomic<std::size_t> through{0};
  JoinLatch join;
  join.add(kParties);
  for (std::size_t i = 0; i < kParties; ++i) {
    pool.submit([&] {
      barrier.arrive_and_wait();
      through.fetch_add(1, std::memory_order_relaxed);
      join.done();
    });
  }
  join.wait(&pool);
  EXPECT_EQ(through.load(), kParties);
}

TEST(Barrier, PlainThreadsParkAndCycle) {
  constexpr std::size_t kParties = 4;
  constexpr int kCycles = 25;
  Barrier barrier(kParties);
  EXPECT_EQ(barrier.parties(), kParties);
  std::atomic<int> checksum{0};
  std::vector<std::thread> threads;
  threads.reserve(kParties);
  for (std::size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int c = 0; c < kCycles; ++c) {
        checksum.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        // Between barriers every thread must observe the full cycle's adds.
        EXPECT_GE(checksum.load(std::memory_order_acquire),
                  static_cast<int>(kParties) * (c + 1));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(checksum.load(), static_cast<int>(kParties) * kCycles);
}

TEST(JoinLatch, PoolWaitRunsEveryJob) {
  WorkStealingPool pool({2, 4, "jl-pool"});
  JoinLatch latch;
  std::atomic<int> ran{0};
  latch.add(8);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      latch.done();
    });
  }
  latch.wait(&pool);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_TRUE(latch.idle());
}

// Deep dependsOn chain through the rebased ptask graph: each link fires the
// next through the completion core's dependent notification; 10k links
// would blow the stack if dependence firing ever recursed inline.
TEST(TaskGraphDeep, TenThousandLinkChainCompletesInOrder) {
  auto& rt = ptask::Runtime::global();
  constexpr int kLinks = 10'000;
  std::atomic<int> last{-1};
  std::atomic<bool> ordered{true};
  auto tail = ptask::run(rt, [&] {
    if (last.exchange(0, std::memory_order_acq_rel) != -1) {
      ordered.store(false, std::memory_order_relaxed);
    }
  });
  for (int i = 1; i < kLinks; ++i) {
    tail = ptask::run_after(
        rt,
        [&last, &ordered, i] {
          if (last.exchange(i, std::memory_order_acq_rel) != i - 1) {
            ordered.store(false, std::memory_order_relaxed);
          }
        },
        tail);
  }
  tail.get();
  EXPECT_TRUE(ordered.load());
  EXPECT_EQ(last.load(), kLinks - 1);
}

/// Busy-spin for roughly `us` microseconds (scheduler-visible cost).
void spin_for_us(double us) {
  Stopwatch sw;
  while (sw.elapsed_us() < us) {
  }
}

// Satellite 3's randomized DAG join: build a random layered dependence
// graph with ptask::run_after, trace it, and cross-check the recorded
// critical path against the sim machine model — T1 must match the serial
// makespan and T∞ the unbounded-core makespan, exactly as in the curated
// obs_roundtrip graphs but on an adversarial random shape.
TEST(TaskGraphRandomDag, TracedJoinMatchesSimCriticalPath) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  auto& rt = ptask::Runtime::global();
  Rng rng(20260806);
  constexpr std::size_t kLayers = 5;
  constexpr std::size_t kWidth = 4;

  obs::TraceDump dump;
  std::size_t spawned = 0;
  {
    obs::TraceSession session;
    std::vector<ptask::TaskID<void>> all;
    std::vector<ptask::TaskID<void>> prev;
    std::vector<ptask::TaskID<void>> layer;
    for (std::size_t l = 0; l < kLayers; ++l) {
      layer.clear();
      const std::size_t width = 1 + rng.below(kWidth);
      for (std::size_t w = 0; w < width; ++w) {
        const double cost_us = 200.0 + static_cast<double>(rng.below(400));
        auto body = [cost_us] { spin_for_us(cost_us); };
        if (prev.empty()) {
          layer.push_back(ptask::run(rt, body));
        } else {
          // One or two random predecessors from the previous layer.
          const auto& d1 = prev[rng.below(prev.size())];
          const auto& d2 = prev[rng.below(prev.size())];
          if (rng.below(2) == 0) {
            layer.push_back(ptask::run_after(rt, body, d1));
          } else {
            layer.push_back(ptask::run_after(rt, body, d1, d2));
          }
        }
        all.push_back(layer.back());
        ++spawned;
      }
      prev = layer;
    }
    // Quiesce every spawned task — an early-layer task with no successor is
    // not ordered before the final layer, and the recorded graph must be
    // complete before the session ends.
    for (auto& t : all) t.get();
    dump = session.end();
  }

  const obs::RecordedGraph graph = obs::extract_task_graph(dump);
  ASSERT_EQ(graph.task_count(), spawned);
  for (const obs::RecordedTask& t : graph.tasks()) {
    EXPECT_TRUE(t.started);
    EXPECT_TRUE(t.finished);
  }
  const obs::CriticalPathReport report = obs::critical_path(graph);
  EXPECT_EQ(report.tasks, spawned);
  EXPECT_GT(report.work_s, 0.0);
  EXPECT_GT(report.span_s, 0.0);
  EXPECT_LE(report.span_s, report.work_s + 1e-12);

  const sim::TaskDag dag = graph.to_dag();
  const auto serial = sim::simulate(dag, {1, 0.0, "p1"});
  EXPECT_NEAR(serial.makespan_s, report.work_s, report.work_s * 1e-9);
  const auto wide = sim::simulate(dag, {64, 0.0, "pinf"});
  EXPECT_NEAR(wide.makespan_s, report.span_s, report.span_s * 1e-9);
  sim::SweepOptions sweep_opts;
  sweep_opts.cores = {2, 4, 8};
  for (const sim::SweepPoint& point : sim::sweep(dag, sweep_opts).points) {
    EXPECT_LE(point.outcome.speedup,
              report.speedup_bound(point.cores) * (1.0 + 1e-9))
        << "cores = " << point.cores;
  }
}

}  // namespace
}  // namespace parc::sched
