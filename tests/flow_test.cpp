// flow::Channel / flow::Pipeline conformance suite (ISSUE 8, satellite 3).
//
// The load-bearing assertions:
//  - a producer blocked on a full channel *parks* (futex) instead of
//    spinning, and a consumer blocked on an empty one does too;
//  - pool-capable threads never park on a channel — they help_while;
//  - close() drains buffered elements before reporting closed;
//  - conservation: pushed == popped + dropped, exactly, at quiescence —
//    including under concurrent poison and under stage errors;
//  - the compile-time fusion rule (bare .then fuses, stage()/flush() forces
//    a boundary), asserted through Pipeline::stage_count();
//  - a randomized multi-stage pipeline matches the sequential oracle;
//  - the waiter-gated wakeup never loses a wakeup: capacity-1/2 channels
//    hammered by plain threads that park on both edges, and a ping-pong
//    where only the peer's reply can wake a parked side, finish under a
//    watchdog, and close()/poison() wake a parked waiter;
//  - batched push_n/try_pop_n/pop_n keep FIFO across the ring's wrap point
//    and conserve exactly, also under a two-thread stress and a stage that
//    throws in the middle of a batch; a trace still has one pop per push;
//  - the asymmetric barrier pair forbids the store-buffering outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "sched/completion.hpp"
#include "sched/thread_pool.hpp"
#include "sim/machine.hpp"
#include "support/asymmetric_barrier.hpp"
#include "support/backoff.hpp"
#include "support/clock.hpp"

namespace parc::flow {
namespace {

using namespace std::chrono_literals;

void expect_conserved(const ChannelStats& s) {
  EXPECT_EQ(s.pushed, s.popped + s.dropped)
      << "pushed=" << s.pushed << " popped=" << s.popped
      << " dropped=" << s.dropped;
}

// ---------------------------------------------------------------------------
// Channel basics.
// ---------------------------------------------------------------------------

TEST(FlowChannel, SpscFifoAndCapacityRounding) {
  Channel<int> ch(ChannelOptions{.capacity = 5, .spsc = true});
  EXPECT_EQ(ch.capacity(), 8u);  // rounded up to a power of two
  for (int i = 0; i < 8; ++i) {
    int v = i;
    EXPECT_EQ(ch.try_push(v), PushResult::ok);
  }
  int v = 99;
  EXPECT_EQ(ch.try_push(v), PushResult::full);
  EXPECT_EQ(ch.occupancy(), 8u);
  for (int i = 0; i < 8; ++i) {
    int out = -1;
    ASSERT_EQ(ch.try_pop(out), PopResult::ok);
    EXPECT_EQ(out, i);  // strict FIFO
  }
  int out;
  EXPECT_EQ(ch.try_pop(out), PopResult::empty);
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.high_water, 8u);
  expect_conserved(s);
}

TEST(FlowChannel, MpmcSingleStripeIsFifo) {
  Channel<int> ch(ChannelOptions{.capacity = 16, .stripes = 1});
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ch.push(i));
  for (int i = 0; i < 10; ++i) {
    int out = -1;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(FlowChannel, StripedDeliversEveryElement) {
  Channel<int> ch(ChannelOptions{.capacity = 64, .stripes = 4});
  std::vector<int> out;
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(ch.push(i));
  int v;
  while (ch.try_pop(v) == PopResult::ok) out.push_back(v);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(out[i], i);
  expect_conserved(ch.stats());
}

TEST(FlowChannel, CloseDrainsBufferedThenReportsClosed) {
  Channel<int> ch(ChannelOptions{.capacity = 8});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.push(i));
  ch.close();
  int v = 7;
  EXPECT_EQ(ch.try_push(v), PushResult::closed);
  EXPECT_FALSE(ch.push(8));
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_EQ(ch.try_pop(out), PopResult::ok) << "buffered elements drain";
    EXPECT_EQ(out, i);
  }
  int out;
  EXPECT_EQ(ch.try_pop(out), PopResult::closed);
  EXPECT_FALSE(ch.pop(out));
  const ChannelStats s = ch.stats();
  EXPECT_TRUE(s.closed);
  EXPECT_FALSE(s.poisoned);
  EXPECT_EQ(s.dropped, 0u);
  expect_conserved(s);
}

TEST(FlowChannel, PoisonDropsAndCountsBuffered) {
  for (const bool spsc : {false, true}) {
    for (const bool batched : {false, true}) {
      Channel<int> ch(ChannelOptions{.capacity = 8, .spsc = spsc});
      for (int i = 0; i < 6; ++i) EXPECT_TRUE(ch.push(i));
      ch.poison();
      if (batched) {
        std::vector<int> out;
        EXPECT_EQ(ch.try_pop_n(out, 4), 0u) << "poison discards, not drains";
        EXPECT_EQ(ch.pop_n(out, 4), 0u);
        EXPECT_TRUE(out.empty());
      } else {
        int out;
        EXPECT_EQ(ch.try_pop(out), PopResult::closed)
            << "poison discards, not drains";
      }
      const ChannelStats s = ch.stats();
      EXPECT_TRUE(s.poisoned);
      EXPECT_EQ(s.pushed, 6u);
      EXPECT_EQ(s.popped, 0u);
      EXPECT_EQ(s.dropped, 6u);
      expect_conserved(s);
    }
  }
}

TEST(FlowChannel, PushNAndPopNMoveBatches) {
  Channel<int> ch(ChannelOptions{.capacity = 32, .spsc = true});
  std::vector<int> in(20);
  std::iota(in.begin(), in.end(), 0);
  EXPECT_EQ(ch.push_n(std::span<int>(in)), 20u);
  std::vector<int> out;
  std::size_t total = 0;
  while (total < 20) {
    const std::size_t n = ch.pop_n(out, 7);
    ASSERT_GT(n, 0u);
    total += n;
  }
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[i], i);
  ch.close();
  EXPECT_EQ(ch.pop_n(out, 7), 0u) << "0 means closed-and-drained";
}

/// Walks both ring indices to three slots before the wrap point, then fills
/// the ring with push_n and drains it with try_pop_n/pop_n, refilling in
/// between, so every run straddles the wrap: the output must be the input
/// in order.
void expect_batches_fifo_across_wrap(ChannelOptions opts) {
  Channel<int> ch(opts);
  const int cap = static_cast<int>(ch.capacity());
  int next = 0;
  std::vector<int> out;
  for (; next < cap - 3; ++next) {
    int v = next;
    ASSERT_EQ(ch.try_push(v), PushResult::ok);
    ASSERT_EQ(ch.try_pop_n(out, 4), 1u);
  }
  std::vector<int> in(static_cast<std::size_t>(cap));
  std::iota(in.begin(), in.end(), next);
  next += cap;
  ASSERT_EQ(ch.push_n(std::span<int>(in)), in.size());
  EXPECT_EQ(ch.try_pop_n(out, 5), 5u);
  std::iota(in.begin(), in.begin() + 5, next);
  next += 5;
  ASSERT_EQ(ch.push_n(std::span<int>(in.data(), 5)), 5u);
  std::size_t left = in.size();
  while (left > 0) {
    const std::size_t n = ch.pop_n(out, 3);
    ASSERT_GT(n, 0u);
    left -= n;
  }
  EXPECT_EQ(ch.try_pop_n(out, 4), 0u) << "empty";
  ASSERT_EQ(out.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) ASSERT_EQ(out[i], i) << "FIFO broken at " << i;
  ch.close();
  EXPECT_EQ(ch.pop_n(out, 3), 0u) << "0 means closed-and-drained";
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.popped, static_cast<std::uint64_t>(next));
  EXPECT_LE(s.high_water, s.capacity);
  expect_conserved(s);
}

TEST(FlowChannel, SpscBatchesKeepFifoAcrossTheWrap) {
  expect_batches_fifo_across_wrap(ChannelOptions{.capacity = 8, .spsc = true});
}

TEST(FlowChannel, MpmcBatchesKeepFifoAcrossTheWrap) {
  expect_batches_fifo_across_wrap(ChannelOptions{.capacity = 8});
}

TEST(FlowChannel, TryPopUntilHonorsDeadline) {
  Channel<int> ch(ChannelOptions{.capacity = 4});
  int out = -1;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ch.try_pop_until(out, t0 + 20ms), PopResult::empty);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 15ms);
  EXPECT_TRUE(ch.push(5));
  EXPECT_EQ(ch.try_pop_until(out, std::chrono::steady_clock::now() + 20ms),
            PopResult::ok);
  EXPECT_EQ(out, 5);
  ch.close();
  EXPECT_EQ(ch.try_pop_until(out, std::chrono::steady_clock::now() + 20ms),
            PopResult::closed);
}

// ---------------------------------------------------------------------------
// Blocking edges: park, don't spin; pool threads help, never park.
// ---------------------------------------------------------------------------

TEST(FlowChannel, FullChannelProducerParksNotSpins) {
  Channel<int> ch(ChannelOptions{.capacity = 2, .spsc = true});
  constexpr int kItems = 50;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ch.push(i));
  });
  // Let the producer exhaust its spin budget and park on the epoch word.
  std::this_thread::sleep_for(50ms);
  for (int i = 0; i < kItems; ++i) {
    int out = -1;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, i);
  }
  producer.join();
  const ChannelStats s = ch.stats();
  EXPECT_GE(s.producer_blocks, 1u);
  EXPECT_GE(s.producer_parks, 1u) << "a blocked producer must futex-park";
  EXPECT_GT(s.producer_blocked_ns, 0u);
  EXPECT_EQ(s.producer_helps, 0u) << "non-pool thread never helps";
  expect_conserved(s);
}

TEST(FlowChannel, EmptyChannelConsumerParksNotSpins) {
  Channel<int> ch(ChannelOptions{.capacity = 4});
  int got = -1;
  std::thread consumer([&] {
    int out = -1;
    ASSERT_TRUE(ch.pop(out));
    got = out;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_TRUE(ch.push(17));
  consumer.join();
  EXPECT_EQ(got, 17);
  const ChannelStats s = ch.stats();
  EXPECT_GE(s.consumer_blocks, 1u);
  EXPECT_GE(s.consumer_parks, 1u) << "a blocked consumer must futex-park";
  EXPECT_GT(s.consumer_blocked_ns, 0u);
  expect_conserved(s);
}

TEST(FlowChannel, PoolThreadConsumerHelpsInsteadOfParking) {
  sched::WorkStealingPool pool(sched::WorkStealingPool::Config{2, 4, "flw"});
  Channel<int> ch(ChannelOptions{.capacity = 4});
  std::atomic<int> got{-1};
  sched::Completion done;
  pool.submit([&] {
    int v = -1;
    if (ch.pop(v)) got.store(v);
    done.complete();
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(ch.push(7));
  done.wait();
  EXPECT_EQ(got.load(), 7);
  const ChannelStats s = ch.stats();
  EXPECT_GE(s.consumer_helps, 1u) << "pool threads ride help_while";
  EXPECT_EQ(s.consumer_parks, 0u) << "pool threads must never futex-park";
}

TEST(FlowChannel, PoolThreadProducerHelpsInsteadOfParking) {
  sched::WorkStealingPool pool(sched::WorkStealingPool::Config{2, 4, "flw"});
  Channel<int> ch(ChannelOptions{.capacity = 2, .spsc = true});
  EXPECT_TRUE(ch.push(0));
  EXPECT_TRUE(ch.push(1));
  sched::Completion done;
  pool.submit([&] {
    ASSERT_TRUE(ch.push(2));  // full: must block via help_while
    done.complete();
  });
  std::this_thread::sleep_for(20ms);
  int out = -1;
  ASSERT_TRUE(ch.pop(out));
  done.wait();
  const ChannelStats s = ch.stats();
  EXPECT_GE(s.producer_helps, 1u);
  EXPECT_EQ(s.producer_parks, 0u);
}

// ---------------------------------------------------------------------------
// Conservation under concurrency.
// ---------------------------------------------------------------------------

TEST(FlowChannel, ConcurrentCloseConservesEveryElement) {
  Channel<int> ch(ChannelOptions{.capacity = 64, .stripes = 4});
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 4000;
  std::atomic<std::uint64_t> produced{0}, consumed{0};
  std::atomic<int> live_producers{kProducers};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!ch.push(i)) break;
        produced.fetch_add(1);
      }
      // Producer-side close: the last producer out ends the stream.
      if (live_producers.fetch_sub(1) == 1) ch.close();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (ch.pop(v)) consumed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(produced.load(), std::uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(consumed.load(), produced.load());
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pushed, produced.load());
  EXPECT_EQ(s.popped, consumed.load());
  EXPECT_EQ(s.dropped, 0u);
  expect_conserved(s);
}

TEST(FlowChannel, ConcurrentPoisonConservesPushedEqualsPoppedPlusDropped) {
  Channel<int> ch(ChannelOptions{.capacity = 32, .stripes = 2});
  constexpr int kProducers = 3, kConsumers = 2;
  std::atomic<std::uint64_t> produced{0}, consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0;; ++i) {
        if (!ch.push(i)) break;  // poisoned under us
        produced.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (ch.pop(v)) consumed.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(10ms);
  ch.poison();
  for (auto& t : threads) t.join();
  (void)ch.discard_all();  // quiescent owner sweeps stragglers
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pushed, produced.load());
  EXPECT_EQ(s.popped, consumed.load());
  expect_conserved(s);
}

TEST(FlowChannel, MpmcHighWaterNeverExceedsCapacity) {
  Channel<int> ch(ChannelOptions{.capacity = 2});
  ASSERT_EQ(ch.capacity(), 2u);
  constexpr int kItems = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (ch.try_push(v) != PushResult::ok) std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    int v;
    for (int i = 0; i < kItems; ++i) {
      while (ch.try_pop(v) != PopResult::ok) std::this_thread::yield();
    }
  });
  producer.join();
  consumer.join();
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pushed, static_cast<std::uint64_t>(kItems));
  EXPECT_GE(s.high_water, 1u);
  EXPECT_LE(s.high_water, s.capacity);
  expect_conserved(s);
}

TEST(FlowChannel, MpmcCapacityOneRoundsUpToTwoSlots) {
  Channel<int> ch(ChannelOptions{.capacity = 1});
  EXPECT_EQ(ch.capacity(), 2u);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(ch.try_push(a), PushResult::ok);
  EXPECT_EQ(ch.try_push(b), PushResult::ok);
  EXPECT_EQ(ch.try_push(c), PushResult::full) << "no slot may be overwritten";
  int out = -1;
  ASSERT_EQ(ch.try_pop(out), PopResult::ok);
  EXPECT_EQ(out, 1);
  ASSERT_EQ(ch.try_pop(out), PopResult::ok);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ch.try_pop(out), PopResult::empty);
}

// ---------------------------------------------------------------------------
// Wakeup handshake: only parked waiters are woken, and none is ever lost.
// ---------------------------------------------------------------------------

/// Fails a test instead of hanging ctest when a wakeup is lost: if not
/// disarmed within `limit`, it poisons the channel (whose unconditional
/// wake frees every parked waiter) and, should that not free them, aborts.
template <typename T>
class Watchdog {
 public:
  Watchdog(Channel<T>& ch, std::chrono::seconds limit)
      : thread_([this, &ch, limit] {
          std::unique_lock lock(mu_);
          if (cv_.wait_for(lock, limit, [&] { return disarmed_; })) return;
          fired_ = true;
          ch.poison();
          if (!cv_.wait_for(lock, 10s, [&] { return disarmed_; })) {
            std::fprintf(stderr, "watchdog: waiters still parked after poison\n");
            std::abort();
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    disarm();
    thread_.join();
  }

  void disarm() {
    {
      std::scoped_lock lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool fired() {
    std::scoped_lock lock(mu_);
    return fired_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  bool fired_ = false;
  std::thread thread_;  // last: starts once the fields above exist
};

/// Plain (non-pool) producer and consumer stream `kItems` through `ch`,
/// each pausing now and then so the other side spins out and parks. The
/// pauses make both gated wake paths run; the FIFO check catches a slot
/// handed over twice.
void stress_park_both_edges(Channel<int>& ch) {
  constexpr int kItems = 20000, kPauseEvery = 1000;
  Watchdog<int> dog(ch, 30s);
  std::atomic<int> order_errors{0};
  std::atomic<int> received{0};
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      if (i % kPauseEvery == kPauseEvery / 2) std::this_thread::sleep_for(1ms);
      if (!ch.push(i)) return;
    }
    ch.close();
  });
  std::thread consumer([&] {
    int v;
    for (int expect = 0; ch.pop(v); ++expect) {
      if (v != expect) order_errors.fetch_add(1);
      if (expect % kPauseEvery == 0) std::this_thread::sleep_for(1ms);
      received.fetch_add(1);
    }
  });
  producer.join();
  consumer.join();
  dog.disarm();
  EXPECT_FALSE(dog.fired()) << "lost wakeup: threads stuck for 30 s";
  EXPECT_EQ(received.load(), kItems);
  EXPECT_EQ(order_errors.load(), 0);
  const ChannelStats s = ch.stats();
  EXPECT_GT(s.producer_parks, 0u) << "the not-full wake path must run";
  EXPECT_GT(s.consumer_parks, 0u) << "the not-empty wake path must run";
  EXPECT_LE(s.high_water, s.capacity);
  expect_conserved(s);
}

TEST(FlowChannel, SpscCapacityOneNeverLosesAWakeup) {
  Channel<int> ch(ChannelOptions{.capacity = 1, .spsc = true});
  stress_park_both_edges(ch);
}

TEST(FlowChannel, SpscCapacityTwoNeverLosesAWakeup) {
  Channel<int> ch(ChannelOptions{.capacity = 2, .spsc = true});
  stress_park_both_edges(ch);
}

TEST(FlowChannel, MpmcCapacityOneNeverLosesAWakeup) {
  Channel<int> ch(ChannelOptions{.capacity = 1});
  stress_park_both_edges(ch);
}

TEST(FlowChannel, MpmcCapacityTwoNeverLosesAWakeup) {
  Channel<int> ch(ChannelOptions{.capacity = 2});
  stress_park_both_edges(ch);
}

/// The batched twin of stress_park_both_edges: the producer push_n's runs
/// of random length and the consumer pop_n's with a random limit, both
/// pausing now and then so the other side parks. Every element must arrive
/// once and in order.
void stress_batches(ChannelOptions opts) {
  constexpr int kItems = 100000, kPauseEvery = 5000;
  Channel<int> ch(opts);
  Watchdog<int> dog(ch, 30s);
  std::atomic<int> order_errors{0};
  std::atomic<int> received{0};
  std::thread producer([&] {
    std::minstd_rand rng(3);
    std::vector<int> run;
    for (int i = 0; i < kItems;) {
      const int n = std::min<int>(kItems - i, 1 + static_cast<int>(rng() % 97));
      run.resize(static_cast<std::size_t>(n));
      std::iota(run.begin(), run.end(), i);
      if (i / kPauseEvery != (i + n) / kPauseEvery) {
        std::this_thread::sleep_for(1ms);
      }
      if (ch.push_n(std::span<int>(run)) != run.size()) return;
      i += n;
    }
    ch.close();
  });
  std::thread consumer([&] {
    std::minstd_rand rng(5);
    std::vector<int> got;
    int expect = 0;
    for (;;) {
      got.clear();
      if (ch.pop_n(got, 1 + rng() % 97) == 0) break;
      for (const int v : got) {
        if (v != expect) order_errors.fetch_add(1);
        ++expect;
      }
      if ((expect - static_cast<int>(got.size())) / kPauseEvery !=
          expect / kPauseEvery) {
        std::this_thread::sleep_for(1ms);
      }
      received.fetch_add(static_cast<int>(got.size()));
    }
  });
  producer.join();
  consumer.join();
  dog.disarm();
  EXPECT_FALSE(dog.fired()) << "lost wakeup: threads stuck for 30 s";
  EXPECT_EQ(received.load(), kItems);
  EXPECT_EQ(order_errors.load(), 0);
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.pushed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(s.popped, static_cast<std::uint64_t>(kItems));
  EXPECT_LE(s.high_water, s.capacity);
  expect_conserved(s);
}

TEST(FlowChannel, SpscBatchedStressConservesAndKeepsOrder) {
  stress_batches(ChannelOptions{.capacity = 2, .spsc = true});
  stress_batches(ChannelOptions{.capacity = 1024, .spsc = true});
}

TEST(FlowChannel, MpmcBatchedStressConservesAndKeepsOrder) {
  stress_batches(ChannelOptions{.capacity = 2});
  stress_batches(ChannelOptions{.capacity = 1024});
}

/// Two plain threads bounce a token through `ping` and `pong` `kRounds`
/// times. Unlike the streams above, where the next push rescues a waiter
/// that slept through a wake, only the peer's reply can wake a parked side
/// here, so one lost wakeup stalls the exchange until the watchdog fires.
/// Each side replies after a random delay spanning the waiter's spin
/// budget, so many replies race the waiter's move from spinning to parking;
/// every 256th reply waits 1 ms, so each side parks even where the spin
/// phase is slow (TSan).
void stress_ping_pong(ChannelOptions opts) {
  constexpr int kRounds = 40000;
  Channel<int> ping(opts);
  Channel<int> pong(opts);
  Watchdog<int> dog(pong, 30s);
  const auto pause = [](std::minstd_rand& rng, int round) {
    if (round % 256 == 0) std::this_thread::sleep_for(1ms);
    for (auto i = rng() % 1024; i > 0; --i) ExponentialBackoff::cpu_relax();
  };
  std::thread responder([&] {
    std::minstd_rand rng(7);
    int v = 0;
    while (ping.pop(v)) {
      pause(rng, v);
      if (!pong.push(v + 1)) return;
    }
  });
  std::minstd_rand rng(11);
  int replies = 0;
  for (int i = 0; i < kRounds; ++i) {
    int v = -1;
    if (!ping.push(i) || !pong.pop(v)) break;
    if (v == i + 1) ++replies;
    pause(rng, i + 128);
  }
  ping.close();
  responder.join();
  dog.disarm();
  EXPECT_FALSE(dog.fired()) << "lost wakeup: the ping-pong stalled for 30 s";
  EXPECT_EQ(replies, kRounds);
  EXPECT_GT(ping.stats().consumer_parks, 0u);
  EXPECT_GT(pong.stats().consumer_parks, 0u);
}

TEST(FlowChannel, SpscPingPongNeverLosesAWakeup) {
  stress_ping_pong(ChannelOptions{.capacity = 1, .spsc = true});
}

TEST(FlowChannel, MpmcPingPongNeverLosesAWakeup) {
  stress_ping_pong(ChannelOptions{.capacity = 2});
}

/// Blocks `waiter` on `ch`, waits until it has parked, then runs `release`
/// from this thread; the waiter must wake and report `false`.
void expect_lifecycle_wakes_parked(Channel<int>& ch, bool consumer_side,
                                   void (Channel<int>::*release)()) {
  Watchdog<int> dog(ch, 30s);
  std::atomic<bool> returned{false};
  bool result = true;
  std::thread waiter([&] {
    int v = 0;
    result = consumer_side ? ch.pop(v) : ch.push(v);
    returned.store(true);
  });
  const auto parks = [&] {
    const ChannelStats s = ch.stats();
    return consumer_side ? s.consumer_parks : s.producer_parks;
  };
  while (parks() == 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(5ms);  // let it reach the futex
  EXPECT_FALSE(returned.load());
  (ch.*release)();
  waiter.join();
  dog.disarm();
  EXPECT_FALSE(dog.fired()) << "lifecycle call did not wake the parked waiter";
  EXPECT_FALSE(result);
}

TEST(FlowChannel, CloseWakesParkedConsumer) {
  for (const bool spsc : {true, false}) {
    Channel<int> ch(ChannelOptions{.capacity = 2, .spsc = spsc});
    expect_lifecycle_wakes_parked(ch, /*consumer_side=*/true,
                                  &Channel<int>::close);
  }
}

TEST(FlowChannel, PoisonWakesParkedConsumerAndProducer) {
  for (const bool spsc : {true, false}) {
    Channel<int> empty(ChannelOptions{.capacity = 2, .spsc = spsc});
    expect_lifecycle_wakes_parked(empty, /*consumer_side=*/true,
                                  &Channel<int>::poison);
    Channel<int> full(ChannelOptions{.capacity = 2, .spsc = spsc});
    EXPECT_TRUE(full.push(1));
    EXPECT_TRUE(full.push(2));
    expect_lifecycle_wakes_parked(full, /*consumer_side=*/false,
                                  &Channel<int>::poison);
    (void)full.discard_all();
    expect_conserved(full.stats());
  }
}

// ---------------------------------------------------------------------------
// Pipeline: fusion rule, ported ptask scenarios, parallelism, errors.
// ---------------------------------------------------------------------------

TEST(FlowPipeline, SingleStageMapsAllElements) {
  auto p = pipeline<int>(PipelineOptions{.single_producer = true})
               .then([](int x) { return x * 10; })
               .collect();
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  EXPECT_EQ(out, (std::vector<int>{10, 20, 30, 40, 50}));
  EXPECT_EQ(p.stage_count(), 1u);
  expect_conserved(p.source_stats());
}

TEST(FlowPipeline, BareThenChainFusesIntoOneStage) {
  auto p = pipeline<int>()
               .then([](int x) { return x + 1; })
               .then([](int x) { return x * 2; })
               .then([](int x) { return std::to_string(x); })
               .collect();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(p.push(i));
  const std::vector<std::string> out = p.wait();
  EXPECT_EQ(p.stage_count(), 1u)
      << "bare .then callables must fuse: composition, no extra channel";
  EXPECT_EQ(out, (std::vector<std::string>{"2", "4", "6", "8"}));
}

TEST(FlowPipeline, StageWrapperForcesMaterializationBoundary) {
  auto p = pipeline<int>()
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x * 2; }))
               .collect();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  EXPECT_EQ(p.stage_count(), 2u) << "flow::stage() is a boundary";
  EXPECT_EQ(out, (std::vector<int>{2, 4, 6, 8}));
}

TEST(FlowPipeline, FlushCallableForcesBoundaryAndEmitsTail) {
  struct SumBatches {
    int acc = 0;
    int n = 0;
    std::optional<int> operator()(int x) {
      acc += x;
      if (++n == 3) {
        const int r = acc;
        acc = 0;
        n = 0;
        return r;
      }
      return std::nullopt;
    }
    std::optional<int> flush() {
      if (n == 0) return std::nullopt;
      return acc;
    }
  };
  auto p = pipeline<int>()
               .then([](int x) { return x; })  // open group...
               .then(SumBatches{})             // ...flush state forces a cut
               .collect();
  for (int i = 1; i <= 7; ++i) EXPECT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  EXPECT_EQ(p.stage_count(), 2u)
      << "a flush() callable cannot fuse with its upstream";
  EXPECT_EQ(out, (std::vector<int>{6, 15, 7}));  // (1+2+3), (4+5+6), flush(7)
}

TEST(FlowPipeline, MultiStageChainsAcrossTypes) {
  auto p = pipeline<int>()
               .then(stage([](int x) { return x * x; }))
               .then(stage([](int x) { return std::to_string(x); }))
               .then(stage([](std::string s) { return "#" + s; }))
               .collect();
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(p.push(i));
  const std::vector<std::string> out = p.wait();
  EXPECT_EQ(out, (std::vector<std::string>{"#1", "#4", "#9", "#16"}));
  EXPECT_EQ(p.stage_count(), 3u);
}

TEST(FlowPipeline, PreservesOrderForManyElements) {
  constexpr int kN = 2000;
  auto p = pipeline<int>(PipelineOptions{.capacity = 16,
                                         .single_producer = true})
               .then(stage([](int x) { return x * 3; }))
               .then(stage([](int x) { return x + 1; }))
               .collect();
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * 3 + 1);
  // capacity 16 with 2000 elements: backpressure must have engaged.
  const ChannelStats s = p.source_stats();
  EXPECT_LE(s.high_water, s.capacity);
  expect_conserved(s);
}

TEST(FlowPipeline, EmptyInputYieldsEmptyOutput) {
  auto p = pipeline<int>().then([](int x) { return x; }).collect();
  EXPECT_TRUE(p.wait().empty());
}

TEST(FlowPipeline, PassThroughPipelineHasZeroStages) {
  auto p = pipeline<int>().collect();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(p.push(i));
  EXPECT_EQ(p.stage_count(), 0u);
  EXPECT_EQ(p.wait(), (std::vector<int>{0, 1, 2}));
}

TEST(FlowPipeline, MoveOnlyPayloadsFlowThrough) {
  auto p = pipeline<std::unique_ptr<int>>()
               .then([](std::unique_ptr<int> v) {
                 *v += 100;
                 return v;
               })
               .then(stage([](std::unique_ptr<int> v) { return *v; }))
               .collect();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(p.push(std::make_unique<int>(i)));
  }
  EXPECT_EQ(p.wait(), (std::vector<int>{100, 101, 102, 103, 104, 105, 106,
                                        107}));
}

TEST(FlowPipeline, FilterStagesDropElements) {
  auto p = pipeline<int>()
               .then([](int x) -> std::optional<int> {
                 if (x % 2 != 0) return std::nullopt;
                 return x;
               })
               .then([](int x) { return x / 2; })
               .collect();
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(p.push(i));
  EXPECT_EQ(p.wait(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FlowPipeline, StagesOverlapInTime) {
  using Clock = std::chrono::steady_clock;
  std::atomic<Clock::rep> stage1_last_exit{0};
  std::atomic<Clock::rep> stage2_first_entry{0};
  auto p =
      pipeline<int>(PipelineOptions{.capacity = 4})
          .then(stage([&](int x) {
            std::this_thread::sleep_for(1ms);
            stage1_last_exit.store(Clock::now().time_since_epoch().count());
            return x;
          }))
          .then(stage([&](int x) {
            Clock::rep expected = 0;
            stage2_first_entry.compare_exchange_strong(
                expected, Clock::now().time_since_epoch().count());
            std::this_thread::sleep_for(1ms);
            return x;
          }))
          .collect();
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(p.push(i));
  ASSERT_EQ(p.wait().size(), 40u);
  EXPECT_LT(stage2_first_entry.load(), stage1_last_exit.load())
      << "stage 2 must start before stage 1 has finished its stream";
}

TEST(FlowPipeline, DeepStageChain) {
  auto b = pipeline<int>(PipelineOptions{.capacity = 8});
  auto p = std::move(b)
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .then(stage([](int x) { return x + 1; }))
               .collect();
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  EXPECT_EQ(p.stage_count(), 8u);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i + 8);
}

TEST(FlowPipeline, ParallelStageDeliversEveryElement) {
  constexpr int kN = 1000;
  StageOptions wide;
  wide.parallelism = 4;
  auto p = pipeline<int>()
               .then(stage([](int x) { return x * 2; }, wide))
               .collect();
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(p.push(i));
  std::vector<int> out = p.wait();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  std::sort(out.begin(), out.end());  // replicas do not preserve order
  for (int i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * 2);
  const PipelineStats ps = p.stats();
  ASSERT_EQ(ps.stages.size(), 2u);  // transform + collect sink
  EXPECT_EQ(ps.stages[0].parallelism, 4u);
  expect_conserved(ps.stages[0].input);
}

TEST(FlowPipeline, PoolBatchStagePreservesOrder) {
  sched::WorkStealingPool pool(sched::WorkStealingPool::Config{4, 4, "flw"});
  constexpr int kN = 2000;
  StageOptions batched;
  batched.pool_batch = 64;
  auto p = pipeline<int>(PipelineOptions{.pool = &pool})
               .then(stage([](int x) { return x * x; }, batched))
               .collect();
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(p.push(i));
  const std::vector<int> out = p.wait();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], i * i) << "pool_batch fan-out must preserve order";
  }
}

TEST(FlowPipeline, ForEachSinkSeesEveryElement) {
  std::atomic<long> sum{0};
  auto p = pipeline<int>()
               .then([](int x) { return x + 1; })
               .for_each([&](int x) { sum.fetch_add(x); }, 2);
  long expect = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(p.push(i));
    expect += i + 1;
  }
  (void)p.wait();
  EXPECT_EQ(sum.load(), expect);
}

TEST(FlowPipeline, ThrowingStagePoisonsAndWaitRethrows) {
  auto p = pipeline<int>(PipelineOptions{.capacity = 4})
               .then(stage([](int x) {
                 if (x == 42) throw std::runtime_error("boom at 42");
                 return x;
               }))
               .collect();
  // Keep pushing until the poison cascade rejects the feed (or input ends).
  for (int i = 0; i < 10000; ++i) {
    if (!p.push(i)) break;
  }
  EXPECT_THROW((void)p.wait(), std::runtime_error);
  // wait() swept every channel: conservation still exact.
  expect_conserved(p.source_stats());
}

TEST(FlowPipeline, StageThrowingMidBatchRethrowsAndConservesEveryChannel) {
  // The stage holds element 0 until 200 more are buffered in its inbox, so
  // its later pop_n runs are full batches and element 100 sits mid-batch.
  std::atomic<bool> buffered{false};
  auto p = pipeline<int>(PipelineOptions{.capacity = 256,
                                         .single_producer = true})
               .then(stage([&buffered](int x) {
                 while (x == 0 && !buffered.load()) {
                   std::this_thread::sleep_for(1ms);
                 }
                 if (x == 100) throw std::runtime_error("boom at 100");
                 return x;
               }))
               .then(stage([](int x) { return x * 2; }))
               .collect();
  std::vector<int> in(201);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_EQ(p.push_n(std::span<int>(in)), in.size());
  buffered.store(true);
  for (int i = 201; i < 10000; ++i) {
    if (!p.push(i)) break;
  }
  EXPECT_THROW((void)p.wait(), std::runtime_error);
  expect_conserved(p.source_stats());
  const PipelineStats ps = p.stats();
  ASSERT_EQ(ps.stages.size(), 3u);
  for (const StageStats& st : ps.stages) {
    SCOPED_TRACE(st.name);
    expect_conserved(st.input);
  }
  EXPECT_GT(ps.stages[0].input.popped, 101u)
      << "the batch holding element 100 was taken whole";
}

TEST(FlowPipeline, RandomizedMultiStagePipelineMatchesSequentialOracle) {
  std::mt19937 rng(20260808u);
  for (int round = 0; round < 12; ++round) {
    const int n = static_cast<int>(rng() % 600);
    const int mul = 1 + static_cast<int>(rng() % 7);
    const int add = static_cast<int>(rng() % 100);
    const int mod = 2 + static_cast<int>(rng() % 5);
    std::vector<int> input(static_cast<std::size_t>(n));
    for (auto& x : input) x = static_cast<int>(rng() % 10000);

    // Sequential oracle: map, filter, map — same lambdas, same order.
    std::vector<int> oracle;
    for (int x : input) {
      const int a = x * mul;
      if (a % mod == 0) continue;
      oracle.push_back(a + add);
    }

    auto p = pipeline<int>(PipelineOptions{
                 .capacity = 8, .single_producer = true})
                 .then([mul](int x) { return x * mul; })
                 .then(stage([mod](int x) -> std::optional<int> {
                   if (x % mod == 0) return std::nullopt;
                   return x;
                 }))
                 .then([add](int x) { return x + add; })
                 .collect();
    for (int x : input) ASSERT_TRUE(p.push(x));
    const std::vector<int> out = p.wait();
    ASSERT_EQ(out, oracle) << "round " << round << " n=" << n;
    expect_conserved(p.source_stats());
  }
}

// ---------------------------------------------------------------------------
// Tracing and replay.
// ---------------------------------------------------------------------------

TEST(FlowTrace, ChannelEventsBalanceAndReplayBuildsDag) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  obs::TraceSession session;
  {
    auto p = pipeline<int>(PipelineOptions{.capacity = 8,
                                           .single_producer = true})
                 .then(stage([](int x) { return x * 2; }))
                 .then(stage([](int x) { return x + 1; }))
                 .collect();
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(p.push(i));
    ASSERT_EQ(p.wait().size(), 64u);
  }
  const obs::TraceDump dump = session.end();
  ASSERT_EQ(dump.total_dropped(), 0u);
  const std::size_t pushes = dump.count_kind(obs::EventKind::kChanPush);
  const std::size_t pops = dump.count_kind(obs::EventKind::kChanPop);
  EXPECT_EQ(pushes, pops) << "fully-consumed run: every push has its pop";
  EXPECT_EQ(pushes, 64u * 3u);  // source + two inter-stage edges
  EXPECT_GE(dump.count_kind(obs::EventKind::kChanClosed), 3u);

  const FlowReplay replay = build_flow_dag(dump);
  EXPECT_EQ(replay.pushes, pushes);
  EXPECT_EQ(replay.pops, pops);
  EXPECT_EQ(replay.channels, 3u);
  EXPECT_GT(replay.source_units, 0u);
  EXPECT_GT(replay.stage_units, 0u);
  EXPECT_GT(replay.sink_units, 0u);

  const sim::SimOutcome outcome = sim::simulate(replay.dag, sim::parc_8core());
  EXPECT_GT(outcome.makespan_s, 0.0);
  EXPECT_GT(outcome.speedup, 0.0);
}

TEST(FlowTrace, BatchedPipelineHasOnePopPerPush) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  constexpr std::size_t kItems = 1000;
  obs::TraceSession session;
  {
    auto p = pipeline<int>(PipelineOptions{.capacity = 1024,
                                           .single_producer = true})
                 .then(stage([](int x) { return x * 2; }))
                 .then(stage([](int x) { return x + 1; }))
                 .collect();
    std::vector<int> in(kItems);
    std::iota(in.begin(), in.end(), 0);
    ASSERT_EQ(p.push_n(std::span<int>(in)), kItems);
    ASSERT_EQ(p.wait().size(), kItems);
  }
  const obs::TraceDump dump = session.end();
  ASSERT_EQ(dump.total_dropped(), 0u);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kChanPush), kItems * 3);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kChanPop), kItems * 3)
      << "a batch emits one kChanPop per element";
}

// ---------------------------------------------------------------------------
// The channel's asymmetric barrier pair.
// ---------------------------------------------------------------------------

/// Store-buffering litmus, about 2 s: side A does x = 1; light; r1 = y and
/// side B does y = 1; heavy; r2 = x. With a working pair at least one side
/// sees the other's store, so r1 == r2 == 0 never happens. Both sides leave
/// one shared start word each round and wait a random few relax rounds
/// first, so their stores and loads overlap.
TEST(AsymmetricBarrier, StoreBufferingLitmus) {
  const bool expedited = asymmetric_barrier_expedited();
  if (kTsanBuild && !expedited) {
    GTEST_SKIP() << "no membarrier, and TSan does not compile fences";
  }
  constexpr std::uint64_t kStop = ~std::uint64_t{0};
  std::atomic<int> x{0};
  std::atomic<int> y{0};
  std::atomic<std::uint64_t> start{0};
  std::atomic<int> finished{0};
  std::atomic<int> r1{-1};
  std::atomic<int> r2{-1};
  const auto side = [&](bool heavy, unsigned seed) {
    std::minstd_rand rng(seed);
    for (std::uint64_t round = 1;; ++round) {
      std::uint64_t s;
      for (int spins = 0; (s = start.load(std::memory_order_acquire)) < round;
           ++spins) {
        ExponentialBackoff::cpu_relax();
        if (spins % 1024 == 1023) std::this_thread::yield();
      }
      if (s == kStop) return;
      for (auto d = rng() % 8; d > 0; --d) ExponentialBackoff::cpu_relax();
      if (heavy) {
        y.store(1, std::memory_order_relaxed);
        heavy_barrier(expedited);
        r2.store(x.load(std::memory_order_relaxed), std::memory_order_relaxed);
      } else {
        x.store(1, std::memory_order_relaxed);
        light_barrier(expedited);
        r1.store(y.load(std::memory_order_relaxed), std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_release);
    }
  };
  std::thread a(side, false, 1u);
  std::thread b(side, true, 2u);
  std::uint64_t rounds = 0;
  std::uint64_t both_zero = 0;
  const Stopwatch clock;
  while (clock.elapsed_s() < 2.0) {
    x.store(0, std::memory_order_relaxed);
    y.store(0, std::memory_order_relaxed);
    start.store(++rounds, std::memory_order_release);
    for (int spins = 0;
         finished.load(std::memory_order_acquire) != static_cast<int>(2 * rounds);
         ++spins) {
      ExponentialBackoff::cpu_relax();
      if (spins % 1024 == 1023) std::this_thread::yield();
    }
    if (r1.load(std::memory_order_relaxed) == 0 &&
        r2.load(std::memory_order_relaxed) == 0) {
      ++both_zero;
    }
  }
  start.store(kStop, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(both_zero, 0u) << "r1 == r2 == 0 in " << both_zero << " of "
                           << rounds << " rounds (expedited=" << expedited
                           << ")";
  EXPECT_GT(rounds, 1000u);
}

}  // namespace
}  // namespace parc::flow
