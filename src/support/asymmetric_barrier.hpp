// Asymmetric Dekker barrier pair (the folly / liburcu pattern).
//
// A store-buffering handshake — one side does `x = 1; barrier; read y`, the
// other `y = 1; barrier; read x` — needs a StoreLoad barrier on both sides,
// or both reads may miss both writes. When one side runs on every operation
// and the other only rarely (a channel's publishers versus its parkers), the
// rare side can pay for both: membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)
// returns only after every running thread of the process has executed a
// full memory barrier (a thread that is not running passed one when it was
// switched out). The frequent side then needs only a compiler barrier:
//
//   light_barrier(expedited)   compiler barrier      (else a seq_cst fence)
//   heavy_barrier(expedited)   membarrier syscall    (else a seq_cst fence)
//
// Both sides of one handshake must pass the same mode. The process registers
// for the expedited command once, on the first asymmetric_barrier_expedited()
// call; a caller reads the mode before either side can run (flow::Channel
// caches it in its constructor) and hands it to both. Where registration
// fails (no membarrier, or a seccomp filter refusing it) the mode is false
// and both sides fall back to seq_cst fences.
//
// This header also owns ThreadSanitizer detection (PARC_TSAN / kTsanBuild):
// TSan does not model standalone fences (and GCC's -Wtsan rejects them), so
// fence-based protocols take a seq_cst-RMW form in instrumented builds, and
// the fallback fences here compile to nothing there.
#pragma once

#include <atomic>

#include "support/check.hpp"

#if defined(__linux__) && __has_include(<linux/membarrier.h>)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#define PARC_HAS_MEMBARRIER 1
#else
#define PARC_HAS_MEMBARRIER 0
#endif

#if defined(__SANITIZE_THREAD__)
#define PARC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARC_TSAN 1
#endif
#endif
#ifndef PARC_TSAN
#define PARC_TSAN 0
#endif

namespace parc {

inline constexpr bool kTsanBuild = PARC_TSAN != 0;

/// True when the process is registered for private expedited membarrier.
/// The first call registers (one syscall); later calls return that result.
inline bool asymmetric_barrier_expedited() noexcept {
#if PARC_HAS_MEMBARRIER
  static const bool registered =
      syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0,
              0) == 0;
  return registered;
#else
  return false;
#endif
}

/// The frequent side's StoreLoad barrier.
inline void light_barrier(bool expedited) noexcept {
  if (expedited) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  } else if constexpr (!kTsanBuild) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
}

/// The rare side's StoreLoad barrier, which also orders every running
/// thread's light_barrier() when `expedited`. A failed membarrier would
/// leave the light side unordered, so it is checked, not ignored.
inline void heavy_barrier(bool expedited) noexcept {
#if PARC_HAS_MEMBARRIER
  if (expedited) {
    PARC_CHECK(syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0,
                       0) == 0);
    return;
  }
#endif
  if constexpr (!kTsanBuild) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
}

}  // namespace parc
