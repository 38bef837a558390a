// Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005), with the C11
// memory orderings from Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
//
// Single owner pushes/pops at the bottom; any number of thieves steal from
// the top. Stores raw pointers; ownership of a popped/stolen element returns
// to the caller. Grows by allocating a larger ring and retiring the old one
// to a garbage list that is freed only on destruction — the classic safe
// reclamation shortcut, bounded because capacity only doubles.
//
// This is the one deliberately lock-free component in the repository
// (CP.100 notwithstanding): a work-stealing scheduler's deque is the
// canonical "absolutely have to" case, and this implementation follows the
// published algorithm verbatim rather than inventing anything.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/asymmetric_barrier.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"

// ThreadSanitizer does not model standalone std::atomic_thread_fence, so the
// published fence-based orderings produce false positives under TSan. When
// compiling instrumented (kTsanBuild, support/asymmetric_barrier.hpp),
// strengthen the per-atomic orderings to carry the same happens-before edges
// directly (slower, but only in sanitizer builds).

namespace parc::sched {

template <typename T>
class ChaseLevDeque {
 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : top_(0), bottom_(0), buffer_(new Ring(round_up(initial_capacity))) {}

  ~ChaseLevDeque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) delete r;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only. Pushes one element at the bottom.
  void push(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(ring->capacity) - 1) {
      ring = grow(ring, t, b);
    }
    ring->put(b, item);
    if constexpr (kTsanBuild) {
      bottom_.store(b + 1, std::memory_order_release);
    } else {
      std::atomic_thread_fence(std::memory_order_release);
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  }

  /// Owner only. Pops the most recently pushed element; nullptr if empty.
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    std::int64_t t;
    if constexpr (kTsanBuild) {
      bottom_.store(b, std::memory_order_seq_cst);
      t = top_.load(std::memory_order_seq_cst);
    } else {
      bottom_.store(b, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      t = top_.load(std::memory_order_relaxed);
    }
    if (t > b) {
      // Deque was empty; restore.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* item = ring->get(b);
    if (t == b) {
      // Last element: race with thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        item = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread. Steals the oldest element; nullptr if empty or lost a race.
  T* steal() {
    // Relaxed pre-check: the sharded pool's hierarchical victim sweeps
    // probe many (mostly empty) foreign deques per pass, and the full
    // protocol below pays a seq_cst fence even to learn "empty". A
    // spurious nullptr is already part of steal()'s contract (lost races
    // return it too), and the park protocol cannot lose the job: any push
    // whose signal_work epoch bump is visible at park-snapshot time
    // happens-before the re-scan, so these relaxed loads see it.
    if (empty_approx()) return nullptr;
    std::int64_t t;
    std::int64_t b;
    if constexpr (kTsanBuild) {
      t = top_.load(std::memory_order_seq_cst);
      b = bottom_.load(std::memory_order_seq_cst);
    } else {
      t = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      b = bottom_.load(std::memory_order_acquire);
    }
    if (t >= b) return nullptr;
    Ring* ring = buffer_.load(std::memory_order_consume);
    T* item = ring->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; caller retries elsewhere
    }
    return item;
  }

  /// Approximate size (racy; for heuristics/stats only).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] bool empty_approx() const noexcept { return size_approx() == 0; }

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : capacity(cap), mask(cap - 1), slots(cap) {}
    const std::size_t capacity;
    const std::size_t mask;
    std::vector<std::atomic<T*>> slots;

    T* get(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T* v) noexcept {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 8 ? 8 : p;
  }

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    retired_.push_back(old);
    return bigger;
  }

  // top_ is hammered by thieves, bottom_ by the owner: separate lines, and
  // buffer_/retired_ (owner-mostly) keep off both.
  alignas(kCacheLineSize) std::atomic<std::int64_t> top_;
  alignas(kCacheLineSize) std::atomic<std::int64_t> bottom_;
  alignas(kCacheLineSize) std::atomic<Ring*> buffer_;
  std::vector<Ring*> retired_;  // owner-only; freed in destructor
};

}  // namespace parc::sched
