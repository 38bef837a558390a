// flow::Channel<T>: the one bounded hand-off primitive (ISSUE 8).
//
// A fixed-capacity lock-free channel with backpressure. Two ring layouts
// behind one API, chosen at construction:
//
//  - SPSC fast path (`ChannelOptions::spsc`): a Lamport ring — producer owns
//    `tail`, consumer owns `head`, each side caches the other's index so the
//    steady state is one release store per op (per run for the batched
//    calls), no fence and *zero* lock-prefixed RMWs: `pushed_` is
//    producer-owned and `popped_` consumer-owned, each bumped with a plain
//    relaxed load+store. For single-producer/single-consumer
//    edges (pipeline stages, the serve ingress thread feeding itself).
//  - MPMC striped variant: `stripes` independent Vyukov per-slot-sequence
//    subrings (the conc::MpmcRing protocol); each thread starts its sweep at
//    a thread-affine stripe, so concurrent producers/consumers mostly CAS on
//    different cache lines. For many-to-one (EventLoop posts) and
//    one-to-many (downloader work feed) edges.
//
// Blocking edges ride the completion-core park/wake idiom (DESIGN §3): a
// producer hitting a full channel or a consumer hitting an empty one
// behaves exactly like a task waiter, and both edges share one slow path
// (`block`) —
//
//  - pool-capable threads (WorkStealingPool::current_pool() != nullptr)
//    never park here: a worker parked on a channel word cannot be woken by
//    new pool work, and the peer that would free a slot may itself be queued
//    behind the blocked worker (the bounded-buffer variant of the helping
//    deadlock documented in conc/task_safe.hpp). They `help_while` instead.
//  - everything else spins and then parks on the edge's epoch word through
//    sched::detail::spin_until/park_until, the same waiter as
//    Completion::wait.
//
// Wakeup protocol (waiter-counted, like Completion::complete and the pool's
// `sleepers` handshake): each edge has an epoch word and a parked-waiter
// count (`not_empty_` for consumers, `not_full_` for producers).
//
//  - A parker increments the edge's waiter count (seq_cst) and issues the
//    heavy StoreLoad barrier *before* it snapshots the epoch and re-checks
//    the ring; it decrements the count once it stops waiting.
//  - A publish (a push, or a batch of them) stores its slots, issues the
//    light StoreLoad barrier and reads `not_empty_`'s waiter count; only if
//    it is non-zero does it bump that edge's epoch and notify_all. Pops do
//    the same on the other edge.
//
// This is a Dekker handshake: either the publisher's waiter read sees the
// parker (→ it bumps and notifies), or the parker's re-check sees the
// published slot (→ it never waits). The barrier pair is asymmetric
// (support/asymmetric_barrier.hpp): publishers run on every op and parkers
// about once per thousand elements, so the parker pays a process-wide
// membarrier and the publisher's barrier is only a compiler barrier. The
// constructor reads the process's barrier mode once, so both sides of a
// channel agree on it; where membarrier is unavailable both sides issue a
// seq_cst fence, and under TSan (which does not model fences) both RMW the
// waiter count with seq_cst, whose modification order suffices.
//
// A parker that snapshotted the epoch before a bump falls through
// std::atomic::wait, which re-checks the value. Gating matters because
// libstdc++ keys its waiter table by `(addr >> 2) % 16`, so every
// cache-line-aligned epoch shares bucket 0: an unconditional notify_all
// took a FUTEX_WAKE syscall on every op whenever *any* channel in the
// process had a parked waiter. close()/poison() and discard_all() still
// bump and notify unconditionally.
//
// Batches. try_pop_n takes the run of buffered slots in one go: on SPSC it
// reads the producer's index once, moves the run, publishes the consumer
// index with one release store, bumps `popped` once and makes one wake
// check (MPMC still claims slot by slot, then counts and wakes once).
// push_n publishes each run of free slots the same way. pop_n blocks for
// the first element and then try_pop_n's the rest. Single-consumer
// pipeline stages drain their inbox this way; replicated stages take one
// element at a time, so a replica never hoards work its siblings could
// run. Under a live trace a batch still emits one kChanPush/kChanPop per
// element. `ChannelStats::popped` counts elements taken out of the ring by
// a consumer, whether or not it went on to use them: a stage that exits on
// error drops the rest of its batch, as it drops its one in-hand element.
//
// close()/poison():
//  - close() is the graceful end-of-stream: pushes are rejected, consumers
//    drain what is buffered and then see `closed`. Contract: close() must
//    happen-after the channel's last push (producer-side close, as in Go);
//    the pop path still re-checks the ring once after observing the closed
//    flag as belt-and-braces against racy callers.
//  - poison() is the error path: the channel closes and buffered elements
//    are *discarded and counted* (`dropped`) on the next pop (drain-on-pop
//    keeps the SPSC single-consumer discipline intact — only a consumer, or
//    a quiescent owner via discard_all(), ever touches the consumer index).
//
// Conservation invariant, asserted across the test suite and bench_flow:
// at quiescence, pushed == popped + dropped, exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "sched/completion.hpp"
#include "sched/thread_pool.hpp"
#include "support/asymmetric_barrier.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"

namespace parc::flow {

enum class PushResult : std::uint8_t { ok, full, closed };
enum class PopResult : std::uint8_t { ok, empty, closed };

struct ChannelOptions {
  /// Ring capacity; rounded up to a power of two (per stripe for MPMC, so
  /// the usable total is stripes * ceil_pow2(capacity / stripes), with at
  /// least 2 slots per stripe: the per-slot sequence protocol cannot tell a
  /// full one-slot ring from an empty one).
  std::size_t capacity = 256;
  /// MPMC subring count; ignored for SPSC. More stripes spread producer
  /// CAS traffic at the cost of weaker cross-stripe FIFO order.
  std::size_t stripes = 1;
  /// Single-producer/single-consumer fast path. Caller contract: at most
  /// one thread pushes and one pops at any time (close() counts as a
  /// producer-side call; poison()/discard_all() as consumer-side).
  bool spsc = false;
};

/// Point-in-time channel counters. Exact at quiescence; monotone-read
/// approximate while ops are in flight.
struct ChannelStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;    ///< taken out of the ring by a consumer
  std::uint64_t dropped = 0;   ///< discarded by poison/discard_all
  std::uint64_t producer_blocks = 0;  ///< pushes that entered the slow path
  std::uint64_t consumer_blocks = 0;  ///< pops that entered the slow path
  std::uint64_t producer_parks = 0;   ///< futex parks (never pool threads)
  std::uint64_t consumer_parks = 0;
  std::uint64_t producer_helps = 0;   ///< blocked ops that rode help_while
  std::uint64_t consumer_helps = 0;
  std::uint64_t producer_blocked_ns = 0;  ///< wall time spent full-blocked
  std::uint64_t consumer_blocked_ns = 0;  ///< wall time spent empty-blocked
  /// Max occupancy observed by a push, never above capacity. MPMC: from the
  /// counters on every push. SPSC: from the ring indices each time the
  /// producer re-reads the consumer's head — when its cached view has no
  /// room for the push (or push_n run) and on every 64th single push — so a
  /// fast consumer shows a low mark; stats() also folds in the current
  /// occupancy.
  std::uint64_t high_water = 0;
  std::size_t occupancy = 0;
  std::size_t capacity = 0;
  bool closed = false;
  bool poisoned = false;
};

namespace detail {
/// Process-unique channel serial for trace events (kChan* `id`).
inline std::uint64_t next_channel_id() noexcept {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

inline constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Stable thread-affine stripe seed, so a given producer keeps hammering
/// the same stripe until it fills.
inline std::size_t stripe_hint() noexcept {
  static thread_local const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h;
}
}  // namespace detail

template <typename T>
class Channel {
  static_assert(std::is_default_constructible_v<T>,
                "Channel ring slots are default-constructed");
  static_assert(std::is_move_assignable_v<T> && std::is_move_constructible_v<T>,
                "Channel transfers elements by move");

 public:
  explicit Channel(ChannelOptions opts = {})
      : spsc_(opts.spsc),
        expedited_(asymmetric_barrier_expedited()),
        id_(detail::next_channel_id()) {
    PARC_CHECK(opts.capacity > 0);
    if (spsc_) {
      const std::size_t cap = detail::ceil_pow2(opts.capacity);
      slots_.resize(cap);
      mask_ = cap - 1;
      capacity_ = cap;
    } else {
      const std::size_t n = opts.stripes == 0 ? 1 : opts.stripes;
      const std::size_t per = detail::ceil_pow2(
          std::max<std::size_t>(2, (opts.capacity + n - 1) / n));
      stripes_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        stripes_.push_back(std::make_unique<Stripe>(per));
      }
      capacity_ = per * n;
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // ---- non-blocking ----

  /// Attempt one push; moves from `v` only on `ok`. Never blocks.
  [[nodiscard]] PushResult try_push(T& v) {
    if (closed_.load(std::memory_order_acquire)) return PushResult::closed;
    if (!ring_try_push(v)) {
      // Racing close() while we swept: report closed, not full, so retry
      // loops terminate.
      return closed_.load(std::memory_order_acquire) ? PushResult::closed
                                                     : PushResult::full;
    }
    after_push();
    return PushResult::ok;
  }

  /// Attempt one pop. Buffered elements drain even after close();
  /// `closed` only once the channel is both closed and empty.
  [[nodiscard]] PopResult try_pop(T& out) {
    if (poisoned_.load(std::memory_order_acquire)) {
      discard_all();
      return PopResult::closed;
    }
    if (ring_try_pop(out)) {
      after_pop();
      return PopResult::ok;
    }
    if (closed_.load(std::memory_order_acquire)) {
      // Belt-and-braces: a push that raced close() may have landed between
      // our sweep and the flag load.
      if (ring_try_pop(out)) {
        after_pop();
        return PopResult::ok;
      }
      return PopResult::closed;
    }
    return PopResult::empty;
  }

  // ---- blocking ----

  /// Push, blocking while full. Returns false iff the channel closed (the
  /// element is dropped — by then no consumer is coming for it).
  bool push(T v) {
    PushResult r = try_push(v);
    if (r == PushResult::full) {
      r = block(PushResult::full, not_full_, producer_, 0,
                [&] { return try_push(v); });
    }
    return r == PushResult::ok;
  }

  /// Pop, blocking while empty. Returns false iff closed-and-drained.
  bool pop(T& out) {
    PopResult r = try_pop(out);
    if (r == PopResult::empty) {
      r = block(PopResult::empty, not_empty_, consumer_, 1,
                [&] { return try_pop(out); });
    }
    return r == PopResult::ok;
  }

  /// Pop with a deadline: `empty` means the deadline passed. With
  /// time_point::max() this is exactly pop(). std::atomic::wait has no
  /// timed form, so a finite deadline parks in bounded sleep slices
  /// (≤ 1 ms) instead of on the epoch futex — timer-grade precision, not
  /// hand-off-grade (the EventLoop only takes this path while delayed
  /// events are pending).
  [[nodiscard]] PopResult try_pop_until(
      T& out, std::chrono::steady_clock::time_point deadline) {
    using clock = std::chrono::steady_clock;
    if (deadline == clock::time_point::max()) {
      return pop(out) ? PopResult::ok : PopResult::closed;
    }
    PopResult r = try_pop(out);
    if (r != PopResult::empty) return r;
    consumer_.blocks.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanFull, id_, 1);
    }
    const auto t0 = clock::now();
    const auto ready = [&] {
      r = try_pop(out);
      return r != PopResult::empty;
    };
    if (!sched::detail::spin_until(ready)) {
      for (auto now = clock::now(); now < deadline; now = clock::now()) {
        std::this_thread::sleep_for(
            std::min<clock::duration>(std::chrono::milliseconds(1),
                                      deadline - now));
        if (ready()) break;
      }
    }
    consumer_.blocked_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::nanoseconds(clock::now() - t0).count()),
        std::memory_order_relaxed);
    return r;
  }

  // ---- batched ----

  /// Push every element (blocking), one publish per run of free slots;
  /// returns how many landed — short only when the channel closed under us.
  std::size_t push_n(std::span<T> items) {
    std::size_t done = 0;
    while (done < items.size()) {
      std::size_t n = 0;
      const auto attempt = [&] {
        return try_push_run(items.subspan(done), n);
      };
      PushResult r = attempt();
      if (r == PushResult::full) {
        r = block(PushResult::full, not_full_, producer_, 0, attempt);
      }
      if (r != PushResult::ok) break;
      done += n;
    }
    return done;
  }

  /// Take up to `max` buffered elements without blocking, appending them to
  /// `out`. Returns the count; 0 when empty, closed-and-drained, or
  /// poisoned (the buffered elements are then discarded and counted as
  /// dropped, as try_pop does).
  std::size_t try_pop_n(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    if (poisoned_.load(std::memory_order_acquire)) {
      discard_all();
      return 0;
    }
    std::size_t n = ring_try_pop_n(out, max);
    // Belt-and-braces, as in try_pop: a push that raced close() may have
    // landed between our sweep and the flag load.
    if (n == 0 && closed_.load(std::memory_order_acquire)) {
      n = ring_try_pop_n(out, max);
    }
    if (n != 0) after_pop(n);
    return n;
  }

  /// Block for at least one element (or close), then take up to `max` in
  /// all without further blocking. Returns the count appended to `out`;
  /// 0 means closed-and-drained.
  std::size_t pop_n(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    T v;
    if (!pop(v)) return 0;
    out.push_back(std::move(v));
    return 1 + try_pop_n(out, max - 1);
  }

  // ---- lifecycle ----

  /// Graceful end-of-stream. Must happen-after the last push (producer-side
  /// close). Idempotent; wakes every parked waiter on both edges.
  void close() noexcept { close_impl(false); }

  /// Error-path close: buffered elements are discarded and counted as
  /// `dropped` by the next pop (or discard_all()). Any thread may call it.
  void poison() noexcept {
    poisoned_.store(true, std::memory_order_release);
    close_impl(true);
  }

  /// Drain-and-count every buffered element. Consumer-side (or quiescent —
  /// e.g. Pipeline::wait after joining its stage threads). Returns the
  /// number discarded.
  std::size_t discard_all() {
    std::size_t n = 0;
    T tmp;
    while (ring_try_pop(tmp)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      ++n;
    }
    if (n != 0) wake(not_full_);
    return n;
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  // ---- introspection ----

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  [[nodiscard]] std::size_t occupancy() const noexcept {
    return static_cast<std::size_t>(
        clamped_occupancy(pushed_.load(std::memory_order_relaxed)));
  }

  [[nodiscard]] ChannelStats stats() const {
    ChannelStats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.producer_blocks = producer_.blocks.load(std::memory_order_relaxed);
    s.consumer_blocks = consumer_.blocks.load(std::memory_order_relaxed);
    s.producer_parks = producer_.parks.load(std::memory_order_relaxed);
    s.consumer_parks = consumer_.parks.load(std::memory_order_relaxed);
    s.producer_helps = producer_.helps.load(std::memory_order_relaxed);
    s.consumer_helps = consumer_.helps.load(std::memory_order_relaxed);
    s.producer_blocked_ns =
        producer_.blocked_ns.load(std::memory_order_relaxed);
    s.consumer_blocked_ns =
        consumer_.blocked_ns.load(std::memory_order_relaxed);
    s.occupancy = occupancy();
    s.high_water = std::max<std::uint64_t>(
        high_water_.load(std::memory_order_relaxed), s.occupancy);
    s.capacity = capacity_;
    s.closed = closed();
    s.poisoned = poisoned();
    return s;
  }

 private:
  /// One blocking edge: the epoch word its waiters park on and the count of
  /// registered waiters that gates the publisher's wake.
  struct Edge {
    alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint32_t> waiters{0};
  };

  /// One side's blocked-op counters (ChannelStats producer_* / consumer_*).
  struct SideStats {
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> parks{0};  ///< futex waits
    std::atomic<std::uint64_t> helps{0};
    std::atomic<std::uint64_t> blocked_ns{0};
  };

  // One Vyukov subring: per-slot sequence numbers arbitrate producers and
  // consumers without a shared head/tail pair (conc::MpmcRing protocol).
  struct Slot {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };
  struct Stripe {
    explicit Stripe(std::size_t cap) : slots(cap), mask(cap - 1) {
      for (std::size_t i = 0; i < cap; ++i) {
        slots[i].sequence.store(i, std::memory_order_relaxed);
      }
    }
    bool try_push(T& v) {
      std::size_t pos = enqueue_pos.load(std::memory_order_relaxed);
      for (;;) {
        Slot* slot = &slots[pos & mask];
        const std::size_t seq = slot->sequence.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) -
                         static_cast<std::intptr_t>(pos);
        if (dif == 0) {
          if (enqueue_pos.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
            slot->value = std::move(v);
            slot->sequence.store(pos + 1, std::memory_order_release);
            return true;
          }
        } else if (dif < 0) {
          return false;  // a full lap behind: stripe is full
        } else {
          pos = enqueue_pos.load(std::memory_order_relaxed);
        }
      }
    }
    bool try_pop(T& out) {
      std::size_t pos = dequeue_pos.load(std::memory_order_relaxed);
      for (;;) {
        Slot* slot = &slots[pos & mask];
        const std::size_t seq = slot->sequence.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) -
                         static_cast<std::intptr_t>(pos + 1);
        if (dif == 0) {
          if (dequeue_pos.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
            out = std::move(slot->value);
            slot->sequence.store(pos + mask + 1, std::memory_order_release);
            return true;
          }
        } else if (dif < 0) {
          return false;  // slot not yet published: stripe is empty
        } else {
          pos = dequeue_pos.load(std::memory_order_relaxed);
        }
      }
    }
    std::vector<Slot> slots;
    std::size_t mask;
    alignas(kCacheLineSize) std::atomic<std::size_t> enqueue_pos{0};
    alignas(kCacheLineSize) std::atomic<std::size_t> dequeue_pos{0};
  };

  bool ring_try_push(T& v) {
    if (spsc_) {
      const std::size_t t = tail_.load(std::memory_order_relaxed);
      if (t - head_cache_ > mask_ || (t & kHeadSampleMask) == 0) {
        head_cache_ = head_.load(std::memory_order_acquire);
        // The only point where the producer sees the true head: sample the
        // occupancy this push leaves (capacity when the ring is full).
        raise_high_water(std::min<std::uint64_t>(t - head_cache_ + 1,
                                                 capacity_));
        if (t - head_cache_ > mask_) return false;
      }
      slots_[t & mask_] = std::move(v);
      tail_.store(t + 1, std::memory_order_release);
      return true;
    }
    const std::size_t n = stripes_.size();
    const std::size_t start = detail::stripe_hint();
    for (std::size_t k = 0; k < n; ++k) {
      if (stripes_[(start + k) % n]->try_push(v)) return true;
    }
    return false;
  }

  bool ring_try_pop(T& out) {
    if (spsc_) {
      const std::size_t h = head_.load(std::memory_order_relaxed);
      if (h == tail_cache_) {
        tail_cache_ = tail_.load(std::memory_order_acquire);
        if (h == tail_cache_) return false;
      }
      out = std::move(slots_[h & mask_]);
      head_.store(h + 1, std::memory_order_release);
      return true;
    }
    const std::size_t n = stripes_.size();
    const std::size_t start = detail::stripe_hint();
    for (std::size_t k = 0; k < n; ++k) {
      if (stripes_[(start + k) % n]->try_pop(out)) return true;
    }
    return false;
  }

  /// Move as many of `items` into the ring as fit; SPSC publishes them with
  /// one tail store. Returns the count moved.
  std::size_t ring_try_push_n(std::span<T> items) {
    if (!spsc_) {
      std::size_t n = 0;
      while (n < items.size() && ring_try_push(items[n])) ++n;
      return n;
    }
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t + items.size() - head_cache_ > capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      raise_high_water(std::min<std::uint64_t>(
          t - head_cache_ + items.size(), capacity_));
    }
    const std::size_t n =
        std::min(items.size(), capacity_ - (t - head_cache_));
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(t + i) & mask_] = std::move(items[i]);
    }
    if (n != 0) tail_.store(t + n, std::memory_order_release);
    return n;
  }

  /// Append up to `max` buffered elements to `out`; SPSC reads the
  /// producer's index at most once and frees the run with one head store.
  std::size_t ring_try_pop_n(std::vector<T>& out, std::size_t max) {
    if (!spsc_) {
      std::size_t n = 0;
      T v;
      while (n < max && ring_try_pop(v)) {
        out.push_back(std::move(v));
        ++n;
      }
      return n;
    }
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (tail_cache_ - h < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
    }
    const std::size_t n = std::min(max, tail_cache_ - h);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(h + i) & mask_]));
    }
    if (n != 0) head_.store(h + n, std::memory_order_release);
    return n;
  }

  /// Counter-derived occupancy for `in` pushes, clamped to [0, capacity]:
  /// each side bumps its counter after its ring op, so the raw difference
  /// can be off by the ops in flight.
  [[nodiscard]] std::uint64_t clamped_occupancy(
      std::uint64_t in) const noexcept {
    const std::uint64_t gone = popped_.load(std::memory_order_relaxed) +
                               dropped_.load(std::memory_order_relaxed);
    return in > gone ? std::min<std::uint64_t>(in - gone, capacity_) : 0;
  }

  void raise_high_water(std::uint64_t occ) noexcept {
    std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
    while (occ > hw && !high_water_.compare_exchange_weak(
                           hw, occ, std::memory_order_relaxed)) {
    }
  }

  /// Bump a counter only its owning side writes: a plain load+store, no
  /// lock-prefixed RMW (readers tolerate a stale value).
  static void bump_owned(std::atomic<std::uint64_t>& c,
                         std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Publisher half of the wakeup handshake, called after the ring op has
  /// published: the light StoreLoad barrier, then wake the edge only if a
  /// waiter has registered. Under TSan the barrier is a seq_cst RMW on the
  /// waiter count, the same location the parker increments.
  void wake_if_parked(Edge& edge) const noexcept {
    std::uint32_t parked;
    if constexpr (kTsanBuild) {
      parked = edge.waiters.fetch_add(0, std::memory_order_seq_cst);
    } else {
      light_barrier(expedited_);
      parked = edge.waiters.load(std::memory_order_relaxed);
    }
    if (parked != 0) wake(edge);
  }

  static void wake(Edge& edge) noexcept {
    edge.epoch.fetch_add(1, std::memory_order_release);
    edge.epoch.notify_all();
  }

  /// Account for `n` published pushes: one counter bump, one wake check,
  /// and under a live trace one kChanPush per element, each carrying the
  /// occupancy that element's push left.
  void after_push(std::size_t n = 1) noexcept {
    if (spsc_) {
      bump_owned(pushed_, n);
    } else {
      raise_high_water(clamped_occupancy(
          pushed_.fetch_add(n, std::memory_order_relaxed) + n));
    }
    wake_if_parked(not_empty_);
    if (obs::tracing()) [[unlikely]] {
      const std::size_t occ = occupancy();
      for (std::size_t i = n; i-- > 0;) {
        obs::emit(obs::EventKind::kChanPush, id_, occ > i ? occ - i : 0);
      }
    }
  }

  /// The consumer-side twin of after_push for `n` taken elements.
  void after_pop(std::size_t n = 1) noexcept {
    if (spsc_) {
      bump_owned(popped_, n);
    } else {
      popped_.fetch_add(n, std::memory_order_relaxed);
    }
    wake_if_parked(not_full_);
    if (obs::tracing()) [[unlikely]] {
      const std::size_t occ = occupancy();
      for (std::size_t i = n; i-- > 0;) {
        obs::emit(obs::EventKind::kChanPop, id_,
                  std::min(occ + i, capacity_));
      }
    }
  }

  /// try_push for a run: closed, full (nothing moved) or ok with `n` > 0
  /// elements published.
  PushResult try_push_run(std::span<T> items, std::size_t& n) {
    if (closed_.load(std::memory_order_acquire)) return PushResult::closed;
    n = ring_try_push_n(items);
    if (n == 0) {
      return closed_.load(std::memory_order_acquire) ? PushResult::closed
                                                     : PushResult::full;
    }
    after_push(n);
    return PushResult::ok;
  }

  /// The blocking half of push (producer side, parked on not_full_) and pop
  /// (consumer side, on not_empty_): retry `attempt` until its result is no
  /// longer `blocked`. Pool threads help; everything else spins, registers
  /// on the edge, then parks through the shared waiter. `side` labels the
  /// trace events (0 = producer, 1 = consumer).
  template <typename Result, typename Attempt>
  Result block(Result blocked, Edge& edge, SideStats& side_stats,
               std::uint64_t side, Attempt attempt) {
    using clock = std::chrono::steady_clock;
    side_stats.blocks.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanFull, id_, side);
    }
    const auto t0 = clock::now();
    Result r = blocked;
    const auto ready = [&] {
      r = attempt();
      return r != blocked;
    };
    if (auto* pool = sched::WorkStealingPool::current_pool()) {
      side_stats.helps.fetch_add(1, std::memory_order_relaxed);
      pool->help_while([&] { return !ready(); });
    } else if (!sched::detail::spin_until(ready)) {
      // Register before the park phase's first epoch snapshot and ring
      // re-check. The heavy barrier pairs with the publisher's light one:
      // the re-check's loads are only acquire, so the increment alone would
      // not order them after it. Under TSan both sides RMW the same word,
      // whose modification order suffices.
      edge.waiters.fetch_add(1, std::memory_order_seq_cst);
      if constexpr (!kTsanBuild) heavy_barrier(expedited_);
      sched::detail::park_until(edge.epoch, ready, id_, side,
                                &side_stats.parks);
      edge.waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    side_stats.blocked_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::nanoseconds(clock::now() - t0).count()),
        std::memory_order_relaxed);
    return r;
  }

  void close_impl(bool poison) noexcept {
    const bool was = closed_.exchange(true, std::memory_order_acq_rel);
    // Wake both edges even when already closed: poison-after-close must
    // still kick parked consumers into their drain-and-exit path.
    wake(not_full_);
    wake(not_empty_);
    if (!was && obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanClosed, id_, poison ? 1 : 0);
    }
  }

  const bool spsc_;
  /// Barrier mode (asymmetric_barrier_expedited), fixed at construction so
  /// publishers and parkers always pair the same barriers.
  const bool expedited_;
  const std::uint64_t id_;
  std::size_t capacity_ = 0;

  /// SPSC producers also re-read the consumer's head (and sample the high
  /// water) on every push whose tail index has these bits clear.
  static constexpr std::size_t kHeadSampleMask = 63;

  // One cache line per writer. Producer line: tail_, its cached view of
  // head_, pushed_ and (SPSC) high_water_; consumer line: head_, cached
  // tail_, popped_, dropped_. The caches are plain fields written only by
  // their own side; MPMC producers share their line through fetch_add.
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> high_water_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> dropped_{0};

  // MPMC stripes (unused when spsc).
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Lifecycle flags: read on every op, written once — kept off both
  // writers' lines so they stay shared in every cache.
  alignas(kCacheLineSize) std::atomic<bool> closed_{false};
  std::atomic<bool> poisoned_{false};

  // Park/wake edges: producers park on not_full_, consumers on not_empty_.
  // Publishers only read an edge's count; parkers write it, so the line
  // stays shared while nobody parks.
  Edge not_full_;
  Edge not_empty_;

  // Slow-path counters (blocked ops only), kept off the edges' lines.
  alignas(kCacheLineSize) SideStats producer_;
  SideStats consumer_;
};

}  // namespace parc::flow
