// Project 8: memory-model demonstrators — "code snippets that demonstrate
// how typical parallelisation problems can occur ... and how such problems
// can be avoided, outlining what options are available and their pros/cons".
//
// Each demo is a small racy protocol executed many times, counting how often
// the anomaly manifests, under a selectable fix:
//
//   kUnsynchronised — the broken version (expressed with relaxed atomics and
//       split load/store so the *race condition* is real but the program has
//       no C++ UB; a data race on a plain int would make any measurement
//       meaningless).
//   kAtomicRmw      — fix with one atomic read-modify-write
//   kMutex          — fix with a mutex around the whole operation
//   kSeqCst         — fix with sequentially-consistent ordering (litmus)
//   kAcqRel         — fix with release/acquire publication
//
// Hardware honesty: the lost-update and check-then-act anomalies fire on any
// machine, including a single-core host (preemption splits the RMW). The
// store-buffer litmus and unsafe-publication anomalies require truly
// concurrent cores / weaker hardware; on a 1-core container both the broken
// and fixed variants report zero — the table still shows the *cost* of each
// fix, and EXPERIMENTS.md flags the limitation.
#pragma once

#include <cstdint>
#include <string>

namespace parc::memmodel {

enum class Sync : std::uint8_t {
  kUnsynchronised,
  kAtomicRmw,
  kMutex,
  kSeqCst,
  kAcqRel,
};

[[nodiscard]] std::string to_string(Sync s);

struct DemoResult {
  std::uint64_t trials = 0;
  std::uint64_t anomalies = 0;
  double ns_per_op = 0.0;

  [[nodiscard]] double anomaly_rate() const noexcept {
    return trials == 0 ? 0.0
                       : static_cast<double>(anomalies) /
                             static_cast<double>(trials);
  }
};

/// Lost update: `threads` threads each add 1 to a shared counter
/// `increments` times with a split load→store. Anomalies = missing counts.
/// Fixes: kAtomicRmw (fetch_add), kMutex. kUnsynchronised loses at least
/// `threads - 1` updates on every machine: each thread's first increment
/// waits between its load and its store until all threads have loaded.
[[nodiscard]] DemoResult lost_update_demo(Sync sync, std::uint64_t increments,
                                          unsigned threads);

/// Store-buffer litmus (Dekker core): T1: x=1; r1=y.  T2: y=1; r2=x.
/// Anomaly = r1==0 && r2==0, impossible under sequential consistency,
/// allowed (and observed on real multicore x86) with relaxed ordering.
/// Fixes: kSeqCst. kAcqRel does NOT forbid it — running both shows why.
[[nodiscard]] DemoResult store_buffer_litmus(Sync sync, std::uint64_t trials);

/// Message passing / unsafe publication: writer fills a payload then sets a
/// ready flag; reader polls the flag then reads the payload. Anomaly =
/// flag seen but payload stale. Fixes: kAcqRel, kSeqCst.
[[nodiscard]] DemoResult unsafe_publication_demo(Sync sync,
                                                 std::uint64_t trials);

/// Check-then-act: `threads` threads do `if (!claimed[k]) claimed[k] = me`
/// over shared slots. Anomaly = a slot claimed by more than one thread
/// (both passed the check before either acted). Fixes: kMutex (compose the
/// check and the act), kAtomicRmw (CAS).
[[nodiscard]] DemoResult check_then_act_demo(Sync sync, std::uint64_t slots,
                                             unsigned threads);

/// Double-checked locking (CP.110): `threads` threads lazily initialise a
/// shared object through the classic broken DCL (relaxed published pointer)
/// or a fix. Anomalies = initialisations observed more than once OR a
/// reader seeing the pointer before the payload. Fixes: kAcqRel (correct
/// DCL), kMutex (plain lock), kSeqCst. kAtomicRmw maps to std::call_once.
[[nodiscard]] DemoResult double_checked_locking_demo(Sync sync,
                                                     std::uint64_t trials,
                                                     unsigned threads);

}  // namespace parc::memmodel
