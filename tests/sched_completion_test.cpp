// Unit + stress coverage for the lock-free completion core
// (sched/completion.hpp): Completion's sealed Treiber continuation list and
// futex-parking waiter protocol, FirstError's single-CAS capture,
// DependencyCounter's countdown, and Sequencer's ticket hand-off.
//
// The *Stress tests are written for the TSan tier-1 gate: they race
// complete() against add_continuation() against wait() on purpose, and
// assert the exactly-once / first-wins contracts hold under the race.
#include "sched/completion.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace parc::sched {
namespace {

TEST(Completion, StartsIncomplete) {
  Completion c;
  EXPECT_FALSE(c.completed());
  c.complete();
  EXPECT_TRUE(c.completed());
}

TEST(Completion, ContinuationRegisteredBeforeCompleteRunsOnComplete) {
  Completion c;
  bool ran = false;
  c.add_continuation([&ran]() noexcept { ran = true; });
  EXPECT_FALSE(ran);
  c.complete();
  EXPECT_TRUE(ran);
}

TEST(Completion, ContinuationAfterCompleteRunsInline) {
  Completion c;
  c.complete();
  bool ran = false;
  c.add_continuation([&ran]() noexcept { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Completion, ContinuationsRunInRegistrationOrder) {
  Completion c;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    c.add_continuation([&order, i]() noexcept { order.push_back(i); });
  }
  c.complete();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Completion, TryPushFailsAfterComplete) {
  Completion c;
  c.complete();
  bool ran = false;
  CompletionNode* node =
      make_completion_node([&ran]() noexcept { ran = true; });
  EXPECT_FALSE(c.try_push(node));
  EXPECT_FALSE(ran);  // caller keeps ownership and decides
  delete node;
}

TEST(Completion, DestructorFreesUnfiredContinuations) {
  // A never-completed completion must not leak its registered nodes (ASan
  // tier-1 checks the delete actually happens).
  auto flag = std::make_shared<int>(7);
  {
    Completion c;
    c.add_continuation([flag]() noexcept { (void)*flag; });
    EXPECT_EQ(flag.use_count(), 2);
  }
  EXPECT_EQ(flag.use_count(), 1);
}

TEST(Completion, WaitReturnsImmediatelyWhenComplete) {
  Completion c;
  c.complete();
  c.wait();  // must not block
}

TEST(Completion, WaiterParksUntilComplete) {
  Completion c;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    c.wait();
    woke.store(true, std::memory_order_release);
  });
  // Give the waiter time to pass the spin phase and park on the futex.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  c.complete();
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST(Completion, StackLifetimeSurvivesCompleterRace) {
  // The post_and_wait pattern: the waiter owns the Completion on its stack
  // and destroys it the moment wait() returns, while the completer's
  // complete() may still be mid-return. Many quick rounds to give TSan/ASan
  // a chance to catch a completer touching freed stack.
  for (int round = 0; round < 200; ++round) {
    auto c = std::make_unique<Completion>();
    std::thread completer([&c] { c->complete(); });
    c->wait();
    c.reset();  // destroy immediately after wake, as a stack frame would
    completer.join();
  }
}

TEST(CompletionStress, ConcurrentAddContinuationVsComplete) {
  // Racing registrars against the completer: every continuation must run
  // exactly once, whether it won the push (runs on the completer) or lost
  // to the seal (runs inline on the registrar).
  constexpr int kRegistrars = 4;
  constexpr int kPerThread = 200;
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    Completion c;
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kRegistrars + 1);
    for (int t = 0; t < kRegistrars; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kPerThread; ++i) {
          c.add_continuation([&ran]() noexcept {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      c.complete();
    });
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    EXPECT_EQ(ran.load(), kRegistrars * kPerThread);
  }
}

TEST(CompletionStress, ManyWaitersAllWake) {
  constexpr int kWaiters = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    Completion c;
    std::atomic<int> woke{0};
    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (int t = 0; t < kWaiters; ++t) {
      waiters.emplace_back([&] {
        c.wait();
        woke.fetch_add(1, std::memory_order_relaxed);
      });
    }
    c.complete();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(woke.load(), kWaiters);
  }
}

TEST(FirstError, TakeReturnsNullWhenNothingCaptured) {
  FirstError e;
  EXPECT_FALSE(e.has_error());
  EXPECT_EQ(e.take(), nullptr);
}

TEST(FirstError, CapturesAndTakesOnce) {
  FirstError e;
  e.capture(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(e.has_error());
  std::exception_ptr p = e.take();
  ASSERT_NE(p, nullptr);
  EXPECT_THROW(std::rethrow_exception(p), std::runtime_error);
  EXPECT_EQ(e.take(), nullptr);  // drained
}

TEST(FirstError, FirstCaptureWins) {
  FirstError e;
  e.capture(std::make_exception_ptr(std::runtime_error("first")));
  e.capture(std::make_exception_ptr(std::logic_error("second")));
  try {
    std::rethrow_exception(e.take());
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "first");
  }
}

TEST(FirstError, NullCaptureIgnored) {
  FirstError e;
  e.capture(nullptr);
  EXPECT_FALSE(e.has_error());
}

TEST(FirstErrorStress, ConcurrentCapturesKeepExactlyOne) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    FirstError e;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&e, &go, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        e.capture(std::make_exception_ptr(std::runtime_error(
            "thread " + std::to_string(t))));
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    EXPECT_NE(e.take(), nullptr);
    EXPECT_EQ(e.take(), nullptr);
  }
}

TEST(DependencyCounter, ZeroCountFiresFromInit) {
  DependencyCounter d;
  bool fired = false;
  d.init(0, [&fired] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(DependencyCounter, FiresOnLastSatisfy) {
  DependencyCounter d;
  int fired = 0;
  d.init(3, [&fired] { ++fired; });
  d.satisfy();
  d.satisfy();
  EXPECT_EQ(fired, 0);
  d.satisfy();
  EXPECT_EQ(fired, 1);
}

TEST(DependencyCounter, RegistrationHoldPreventsEarlyFire) {
  // The spawn idiom: init with deps + 1, then release the hold last.
  DependencyCounter d;
  bool fired = false;
  d.init(2 + 1, [&fired] { fired = true; });
  d.satisfy();  // dep 1
  d.satisfy();  // dep 2
  EXPECT_FALSE(fired);
  d.satisfy();  // registration hold
  EXPECT_TRUE(fired);
}

TEST(DependencyCounterStress, ConcurrentSatisfyFiresExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    DependencyCounter d;
    std::atomic<int> fired{0};
    d.init(kThreads, [&fired] {
      fired.fetch_add(1, std::memory_order_relaxed);
    });
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        d.satisfy();
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    EXPECT_EQ(fired.load(), 1);
  }
}

TEST(Sequencer, EnforcesTicketOrder) {
  Sequencer seq(0);
  std::vector<int> order;
  std::mutex order_mutex;
  constexpr int kTickets = 16;
  std::vector<std::thread> threads;
  threads.reserve(kTickets);
  // Launch in reverse so later tickets are (usually) waiting first.
  for (int i = kTickets - 1; i >= 0; --i) {
    threads.emplace_back([&, i] {
      seq.wait_for(i);
      {
        std::scoped_lock lock(order_mutex);
        order.push_back(i);
      }
      seq.advance();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTickets));
  for (int i = 0; i < kTickets; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(seq.current(), kTickets);
}

// The park phase's ordering rule, forced deterministically. The predicate
// plays a publisher that lands between the waiter's re-check and its futex
// wait: on its first call it publishes (bumps the word and notifies) yet
// reports "not ready", as a re-check that read just before the publication
// would. Snapshotting the word before the re-check makes the wait see the
// bump and return; a waiter that re-checked first would sleep on the bumped
// value with no wake to come. A rescue thread turns that hang into a
// failure. (flow_test's ping-pong stress tests hit the same race only by
// chance.)
TEST(ParkUntil, PublishBetweenRecheckAndWaitIsNotLost) {
  std::atomic<std::uint32_t> word{0};
  bool published = false;
  const auto ready = [&] {
    if (published) return true;
    published = true;
    word.fetch_add(1, std::memory_order_release);
    word.notify_all();
    return false;
  };
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool rescued = false;
  std::thread rescue([&] {
    std::unique_lock lock(mu);
    if (cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; })) {
      return;
    }
    rescued = true;
    word.fetch_add(1, std::memory_order_release);
    word.notify_all();
  });
  detail::park_until(word, ready, 0, 0);
  {
    std::scoped_lock lock(mu);
    done = true;
  }
  cv.notify_all();
  rescue.join();
  EXPECT_FALSE(rescued) << "the waiter slept through a publication";
}

}  // namespace
}  // namespace parc::sched
