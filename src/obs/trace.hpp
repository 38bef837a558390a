// parc::obs tracing core: always-available, near-zero-overhead task-graph
// event recording for both runtimes.
//
// Design targets (ISSUE 2):
//  - compiled out entirely under -DPARC_TRACE=OFF (`tracing()` is a
//    compile-time false, so every hook is dead code);
//  - when compiled in but no session is active, a hook costs one relaxed
//    atomic load and one predicted branch (≤ 1 ns; bench_sched_overhead
//    asserts the budget);
//  - when a session is live, each event is one steady_clock read plus a
//    32-byte store into a per-thread fixed-capacity buffer — no locks, no
//    allocation, no cross-thread cache traffic on the write path.
//
// Concurrency model. Each thread writes to its own buffer; the only shared
// word a writer touches per event is its buffer's own `count`, published
// with a release store. The collector (trace_end) reads `count` with an
// acquire load and copies only slots below it, so a writer mid-append never
// races the reader — the in-flight event is simply not collected. Buffers
// are allocated fresh per session (registered under a mutex on a thread's
// first event), never recycled, so a laggard writer from a previous session
// can at worst append to a buffer nobody will read again.
//
// Buffers are bounded and non-wrapping: when full, further events on that
// thread are dropped and counted (`ThreadTrack::dropped`). A trace is a
// measurement tool; dropping beats unbounded memory or a resize lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Defined (0 or 1) by the build via the PARC_TRACE CMake option; defaults to
// compiled-in for non-CMake consumers of the headers.
#if !defined(PARC_OBS_TRACE)
#define PARC_OBS_TRACE 1
#endif

namespace parc::obs {

/// Fixed event vocabulary. `id` / `arg` meaning per kind is noted inline;
/// ids come from next_id() and are unique across kinds within a process.
enum class EventKind : std::uint8_t {
  // Scheduler layer (sched::WorkStealingPool).
  kJobEnqueue,   ///< id = job id, arg = 0 — cell entered a pool queue
  kExecBegin,    ///< id = job id — a worker/helper started the job
  kExecEnd,      ///< id = job id — the job returned
  kSteal,        ///< id = stolen job id, arg = victim worker index
  kPark,         ///< id = worker index — worker went to sleep
  kUnpark,       ///< id = worker index — worker woke up
  // Task layer (ptask tasks, pj deferred tasks, multi-task bodies).
  kTaskSpawn,    ///< id = task id, arg = parent task id (0 = none)
  kTaskReady,    ///< id = task id — all dependences satisfied, submitted
  kTaskStart,    ///< id = task id — body began executing
  kTaskFinish,   ///< id = task id — body finished (any terminal state)
  kDepEdge,      ///< id = predecessor task id, arg = successor task id
  // Pyjama structure.
  kRegionBegin,  ///< id = region id, arg = team size (per member thread)
  kRegionEnd,    ///< id = region id, arg = member index
  kRegionFork,   ///< id = parent region id (0 = top level), arg = child id
  kSpawnFallback,  ///< id = region id, arg = member count — pool saturated,
                   ///< inner-region members spawned as raw threads
  kBarrierBegin, ///< id = barrier identity
  kBarrierEnd,   ///< id = barrier identity
  // GUI event-dispatch thread.
  kEdtPost,      ///< id = 0 — closure posted to the event loop
  kEdtHop,       ///< id = completing task id — handler dispatched to EDT
  kEdtRunBegin,  ///< id = event sequence number — EDT started servicing
  kEdtRunEnd,    ///< id = event sequence number — EDT finished servicing
  // Completion core (sched::Completion / JoinLatch / Barrier waiters).
  kWaiterPark,      ///< id = join identity — waiter parked on a futex word
  kWaiterWake,      ///< id = join identity — parked waiter resumed
  kWaiterHelp,      ///< id = helped job id — a waiter ran a pool job
  kContinuationRun, ///< id = completed identity — continuation executed
  // Continuation stealing (hand-off decision on the submit/complete path).
  kContLocalPush,       ///< id = job id — ready work pushed to own deque tail
  kContInjectFallback,  ///< id = job id — local hint from a non-worker thread
  kDequeOverflow,       ///< id = job id, arg = worker — soft cap hit, injected
  // Locality-domain sharding (Config::shards > 1; see DESIGN §3).
  kStealRemote,  ///< id = stolen job id, arg = victim worker index — the
                 ///< thief's shard ran dry and it crossed into another domain
  kParkShard,    ///< id = worker index, arg = shard index — worker parked on
                 ///< its shard's (not a global) park list
  // Serving stack (parc::serve): one span per request plus lifecycle marks.
  kServeArrive,     ///< id = request id, arg = request kind — offered load
  kServeShed,       ///< id = request id, arg = 0 token bucket / 1 queue full
  kServeHit,        ///< id = request id — answered from the result cache
  kServeCoalesce,   ///< id = request id, arg = leader request id — attached
                    ///< to an in-flight computation of the same key
  kServeBatch,      ///< id = batch sequence no., arg = batch size — a batch
                    ///< left the batcher for submit_bulk
  kServeExecBegin,  ///< id = request id, arg = shard — backend work started
  kServeExecEnd,    ///< id = request id — backend work finished
  kServeDone,       ///< id = request id, arg = latency ns — reply delivered
  // Bounded channels (parc::flow). `id` is the channel's process-unique
  // serial; push/pop carry occupancy *after* the operation so the exporter
  // can draw per-channel occupancy counter tracks.
  kChanPush,     ///< id = channel id, arg = occupancy after the push
  kChanPop,      ///< id = channel id, arg = occupancy after the pop
  kChanFull,     ///< id = channel id, arg = 0 producer blocked on full,
                 ///< 1 consumer blocked on empty
  kChanClosed,   ///< id = channel id, arg = 0 closed, 1 poisoned
  // Replicated serving (serve::Router health/fault lifecycle). Replica
  // transitions are keyed on *scheduled* arrival time, so a traced run's
  // eject/probe sequence is a pure function of the seeded request stream.
  kReplicaPick,   ///< id = request id, arg = replica index — router choice
  kReplicaFail,   ///< id = request id, arg = replica index — request failed
                  ///< (injected fault or organic backend error)
  kEject,         ///< id = replica index, arg = consecutive failures —
                  ///< replica left the healthy rotation
  kProbe,         ///< id = replica index, arg = 0 half-open probe routed /
                  ///< 1 probe verdict ok (replica recovered) / 2 probe
                  ///< verdict failed (backoff doubled, re-ejected)
  kDeadlineShed,  ///< id = request id, arg = priority — expired or refused
                  ///< by the priority/deadline admission ladder
  // Keep last: an alias of the final kind above, so loops over every kind
  // (0..kLastKind) see a new one. Add new kinds above and re-point it.
  kLastKind = kDeadlineShed,
};

/// Fixed-slot trace record: 32 bytes, written once, never reused.
struct Event {
  std::uint64_t t_ns = 0;  ///< nanoseconds since session start
  std::uint64_t id = 0;
  std::uint64_t arg = 0;
  EventKind kind{};
  std::uint8_t reserved_[7] = {};
};
static_assert(sizeof(Event) == 32, "Event must stay one half cache line");

namespace detail {
// The runtime gate. Extern so trace_enabled() inlines to one relaxed load.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when a trace session is live. Hot-path callers should use
/// tracing() below, which also folds in the compile-time switch.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Compile-time tracing switch (the PARC_TRACE CMake option).
inline constexpr bool kTraceCompiled = PARC_OBS_TRACE != 0;

/// The one gate every hook uses:
///   if (obs::tracing()) [[unlikely]] { ...assign ids, emit... }
/// Compiles to `false` (dead code) when tracing is compiled out, and to a
/// single relaxed load + branch when compiled in but idle.
[[nodiscard]] inline bool tracing() noexcept {
  if constexpr (kTraceCompiled) {
    return trace_enabled();
  } else {
    return false;
  }
}

/// Append one event to the calling thread's buffer. Callers must gate on
/// tracing() — emit() itself re-checks nothing beyond session epoch.
void emit(EventKind kind, std::uint64_t id, std::uint64_t arg = 0) noexcept;

/// Process-unique id source for tasks/jobs/regions (starts at 1; 0 means
/// "untraced"). Only called on traced paths.
[[nodiscard]] std::uint64_t next_id() noexcept;

/// Sticky label for the calling thread's lane in exported traces
/// ("ptask-w0", "edt", ...). Cheap; callable before any session starts.
void label_thread(std::string name);

struct TraceConfig {
  /// Event capacity per writing thread; events beyond it are dropped (and
  /// counted). 64Ki events = 2 MiB per thread.
  std::size_t events_per_thread = std::size_t{1} << 16;
};

/// One thread's recorded events, in emission order.
struct ThreadTrack {
  std::uint32_t tid = 0;       ///< registration order within the session
  std::string name;            ///< label_thread() value or "thread-<tid>"
  std::vector<Event> events;
  std::uint64_t dropped = 0;   ///< events lost to buffer exhaustion
};

/// A completed trace: every thread's track plus session metadata.
struct TraceDump {
  std::vector<ThreadTrack> tracks;
  std::uint64_t origin_ns = 0;  ///< steady-clock origin of t_ns == 0

  [[nodiscard]] std::size_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
  [[nodiscard]] std::size_t count_kind(EventKind kind) const noexcept;
};

/// Start recording. Requires no live session. Thread-safe; buffers from any
/// previous session are abandoned to their writers.
void trace_begin(TraceConfig cfg = {});

/// Stop recording and collect every registered thread's events. Events whose
/// emit is still in flight on another thread are safely excluded.
[[nodiscard]] TraceDump trace_end();

/// True between trace_begin() and trace_end() (same as trace_enabled(), but
/// readable when tracing is compiled out: always false then).
[[nodiscard]] inline bool session_active() noexcept { return tracing(); }

/// RAII session: begins on construction; end() (or destruction) collects.
class TraceSession {
 public:
  explicit TraceSession(TraceConfig cfg = {}) { trace_begin(cfg); }
  ~TraceSession() {
    if (!ended_) (void)trace_end();
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] TraceDump end() {
    ended_ = true;
    return trace_end();
  }

 private:
  bool ended_ = false;
};

}  // namespace parc::obs
