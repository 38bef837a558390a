// Pool-aware task-graph primitives built on the completion core
// (completion.hpp): the pieces that know about WorkStealingPool and compose
// help_while with atomic parking.
//
//  - JoinLatch: count-up/count-down join point with first-error capture —
//    the one implementation behind ptask::TaskGroup, pj task accounting
//    (taskwait), and conc::TaskSafeLatch;
//  - Barrier: sense-reversing cyclic barrier whose arrivals either help the
//    pool or atomic::wait-park — never block a pooled worker on a cv — so a
//    team larger than the worker count still makes progress (pj::Barrier,
//    conc::TaskSafeBarrier);
//
// Waiter taxonomy (the contract every wait() below follows): a thread that
// is allowed to run pool jobs — a pool worker, or an external caller that
// opted into helping — uses pool.help_while(), because the job that would
// complete the join may be sitting in a queue only the waiter can drain.
// A thread that must NOT run pool jobs (a pj region team thread, the EDT)
// spins, then parks on the completion/count word, always through
// detail::spin_then_park (completion.hpp). Ordered-ticket
// waits (completion.hpp Sequencer) always park: helping could nest a later
// ticket's wait on the waiter's own stack and deadlock the sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>

#include "sched/completion.hpp"
#include "sched/thread_pool.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"

namespace parc::sched {

/// Count-up/count-down join point with built-in first-error capture: the
/// shared core behind TaskGroup::wait, pj taskwait, and TaskSafeLatch.
/// Reusable: add/done cycles may repeat across waits. Reuse contract: once
/// the count reaches zero, only a thread that has observed the join
/// complete may add() again — true for every holder (TaskGroup reuse, pj
/// teams): a running task keeps the count above zero while it spawns, so
/// the count cannot leave zero concurrently with a waiter parking.
class JoinLatch {
 public:
  JoinLatch() = default;
  JoinLatch(const JoinLatch&) = delete;
  JoinLatch& operator=(const JoinLatch&) = delete;

  void add(std::size_t n = 1) noexcept {
    outstanding_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Retire one unit. Release-publishes the task's writes; wakes parked
  /// waiters when the count returns to zero.
  void done() noexcept { done_n(1); }

  /// Retire `n` units in one epoch RMW and at most one notify — the batch
  /// spelling for chunked fan-out (pj::taskloop runners retire every chunk
  /// they claimed with a single done_n at exit), amortising the RMW the way
  /// submit_bulk amortises worker wakeups. No-op when n == 0.
  ///
  /// Lifetime rule (same as Completion::complete): the fetch_sub is the
  /// last access to *this — the instant it lands, a waiter polling idle()
  /// may return and destroy the latch (pj's Team dies right after its
  /// region-end taskwait), so done_n() must not touch any member after it.
  /// notify_all only dereferences the futex/waiter-table address, never
  /// the object.
  void done_n(std::size_t n) noexcept {
    if (n == 0) return;
    if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      outstanding_.notify_all();
    }
  }

  [[nodiscard]] bool idle() const noexcept {
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_acquire);
  }

  /// Record a failing task's exception (first one wins, lock-free).
  void capture_error(std::exception_ptr e) noexcept {
    error_.capture(std::move(e));
  }

  [[nodiscard]] std::exception_ptr take_error() noexcept {
    return error_.take();
  }

  [[nodiscard]] bool has_error() const noexcept { return error_.has_error(); }

  /// Wait until the count is zero. With a pool, the caller helps (runs
  /// pending jobs — required for any thread that may hold queued work alive,
  /// see the waiter taxonomy above); without one it spins briefly then parks
  /// on the count word itself. Parking on the count is safe under the reuse
  /// contract above: the count cannot leave zero while a waiter is between
  /// its load and its wait, so a stale-value park cannot sleep through the
  /// join (and any done() churn just wakes the waiter to re-check).
  void wait(WorkStealingPool* helper_pool, std::uint64_t trace_id = 0) {
    if (idle()) return;
    if (helper_pool != nullptr) {
      helper_pool->help_while([this] { return !idle(); });
      return;
    }
    detail::spin_then_park(outstanding_, [this] { return idle(); }, trace_id,
                           0);
  }

 private:
  alignas(kCacheLineSize) std::atomic<std::size_t> outstanding_{0};
  FirstError error_;
};

/// Sense-reversing cyclic barrier. Arrivals never block a pooled worker on
/// a cv: with a `help_pool`, a waiting arrival runs pending jobs (so a team
/// of N scheduled onto W < N workers completes — the helped jobs include
/// the other arrivals); without one it spins then parks on the generation
/// word. Reusable across any number of cycles.
class Barrier {
 public:
  explicit Barrier(std::size_t parties, WorkStealingPool* help_pool = nullptr)
      : parties_(parties), help_pool_(help_pool) {
    PARC_CHECK(parties > 0);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

  void arrive_and_wait() {
    // Snapshot the generation BEFORE arriving: if the last arriver bumps it
    // between our fetch_add and our first wait, the comparison below sees
    // the change and we never sleep through our own release.
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Last arriver: reset the count for the next cycle, then publish the
      // new generation. The relaxed reset cannot race next-cycle arrivals —
      // they only start arriving after acquiring the generation bump below.
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    // A pooled arrival must help even when the barrier was not configured
    // with a pool: the remaining arrivals may be jobs queued behind us on
    // the very workers now waiting here (team size > worker count).
    WorkStealingPool* pool = help_pool_ != nullptr
                                 ? help_pool_
                                 : WorkStealingPool::current_pool();
    const auto released = [this, gen] {
      return generation_.load(std::memory_order_acquire) != gen;
    };
    if (pool != nullptr) {
      pool->help_while([&] { return !released(); });
      return;
    }
    detail::spin_then_park(generation_, released, 0, gen);
  }

 private:
  const std::size_t parties_;
  WorkStealingPool* const help_pool_;
  alignas(kCacheLineSize) std::atomic<std::size_t> arrived_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace parc::sched
