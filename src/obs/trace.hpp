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
//
// Vocabulary. Every event kind is one row of the PARC_OBS_EVENT_KINDS table
// below; adding a kind to the vocabulary is one new row.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

// Defined (0 or 1) by the build via the PARC_TRACE CMake option; defaults to
// compiled-in for non-CMake consumers of the headers.
#if !defined(PARC_OBS_TRACE)
#define PARC_OBS_TRACE 1
#endif

namespace parc::obs {

// The trace-event vocabulary, defined once. Each row is
//   X(kind, ph, name, cat, with_id)
// where `ph` is the Chrome trace-event phase ("i" instant, "B"/"E" span
// begin/end), `name` and `cat` the exported name stem and category, and
// `with_id` appends "#<id>" to the exported name. Everything else derives
// from the rows: the EventKind enum (in row order, so kind values never
// shift), kEventKindCount, the event_kind_info() lookup the Chrome writer
// indexes and the reader inverts, and span roles — a "B" row and the "E"
// row with the same (name, cat) are the two ends of one span. Adding a kind
// is one row; append it so recorded kind values stay stable. The `id` /
// `arg` meaning of each kind is noted above its row; ids come from
// next_id() and are unique across kinds within a process.
// clang-format off
#define PARC_OBS_EVENT_KINDS(X)                                               \
  /* Scheduler layer (sched::WorkStealingPool). */                            \
  /* id = job id, arg = 0 — cell entered a pool queue */                      \
  X(kJobEnqueue, "i", "enqueue", "sched", false)                              \
  /* id = job id — a worker/helper started the job */                         \
  X(kExecBegin, "B", "job", "sched", true)                                    \
  /* id = job id — the job returned */                                        \
  X(kExecEnd, "E", "job", "sched", true)                                      \
  /* id = stolen job id, arg = victim worker index */                         \
  X(kSteal, "i", "steal", "sched", false)                                     \
  /* id = worker index — worker went to sleep */                              \
  X(kPark, "i", "park", "sched", false)                                       \
  /* id = worker index — worker woke up */                                    \
  X(kUnpark, "i", "unpark", "sched", false)                                   \
  /* Task layer (ptask tasks, pj deferred tasks, multi-task bodies). */       \
  /* id = task id, arg = parent task id (0 = none) */                         \
  X(kTaskSpawn, "i", "spawn", "task", true)                                   \
  /* id = task id — all dependences satisfied, submitted */                   \
  X(kTaskReady, "i", "ready", "task", true)                                   \
  /* id = task id — body began executing */                                   \
  X(kTaskStart, "B", "task", "task", true)                                    \
  /* id = task id — body finished (any terminal state) */                     \
  X(kTaskFinish, "E", "task", "task", true)                                   \
  /* id = predecessor task id, arg = successor task id */                     \
  X(kDepEdge, "i", "dep", "task", false)                                      \
  /* Pyjama structure. */                                                     \
  /* id = region id, arg = team size (per member thread) */                   \
  X(kRegionBegin, "B", "region", "pj", true)                                  \
  /* id = region id, arg = member index */                                    \
  X(kRegionEnd, "E", "region", "pj", true)                                    \
  /* id = parent region id (0 = top level), arg = child id */                 \
  X(kRegionFork, "i", "region-fork", "pj", true)                              \
  /* id = region id, arg = member count — pool saturated, inner-region        \
     members spawned as raw threads */                                        \
  X(kSpawnFallback, "i", "spawn-fallback", "pj", true)                        \
  /* id = barrier identity */                                                 \
  X(kBarrierBegin, "B", "barrier", "pj", false)                               \
  /* id = barrier identity */                                                 \
  X(kBarrierEnd, "E", "barrier", "pj", false)                                 \
  /* GUI event-dispatch thread. */                                            \
  /* id = 0 — closure posted to the event loop */                             \
  X(kEdtPost, "i", "post", "gui", false)                                      \
  /* id = completing task id — handler dispatched to EDT */                   \
  X(kEdtHop, "i", "edt-hop", "gui", false)                                    \
  /* id = event sequence number — EDT started servicing */                    \
  X(kEdtRunBegin, "B", "event", "gui", true)                                  \
  /* id = event sequence number — EDT finished servicing */                   \
  X(kEdtRunEnd, "E", "event", "gui", true)                                    \
  /* Completion core (sched::Completion / JoinLatch / Barrier waiters). */    \
  /* id = join identity — waiter parked on a futex word */                    \
  X(kWaiterPark, "B", "join-wait", "sync", true)                              \
  /* id = join identity — parked waiter resumed */                            \
  X(kWaiterWake, "E", "join-wait", "sync", true)                              \
  /* id = helped job id — a waiter ran a pool job */                          \
  X(kWaiterHelp, "i", "help", "sync", false)                                  \
  /* id = completed identity — continuation executed */                       \
  X(kContinuationRun, "i", "continuation", "sync", true)                      \
  /* Continuation stealing (hand-off decision on submit/complete). */         \
  /* id = job id — ready work pushed to own deque tail */                     \
  X(kContLocalPush, "i", "cont-local-push", "sched", false)                   \
  /* id = job id — local hint from a non-worker thread */                     \
  X(kContInjectFallback, "i", "cont-inject-fallback", "sched", false)         \
  /* id = job id, arg = worker — soft cap hit, injected */                    \
  X(kDequeOverflow, "i", "deque-overflow", "sched", false)                    \
  /* Locality-domain sharding (Config::shards > 1; see DESIGN §3). */         \
  /* id = stolen job id, arg = victim worker index — the thief's shard ran    \
     dry and it crossed into another domain */                                \
  X(kStealRemote, "i", "steal-remote", "sched", false)                        \
  /* id = worker index, arg = shard index — worker parked on its shard's      \
     (not a global) park list */                                              \
  X(kParkShard, "i", "park-shard", "sched", false)                            \
  /* Serving stack (parc::serve): one span per request + lifecycle marks. */  \
  /* id = request id, arg = request kind — offered load */                    \
  X(kServeArrive, "i", "arrive", "serve", true)                               \
  /* id = request id, arg = 0 token bucket / 1 queue full */                  \
  X(kServeShed, "i", "shed", "serve", true)                                   \
  /* id = request id — answered from the result cache */                      \
  X(kServeHit, "i", "cache-hit", "serve", true)                               \
  /* id = request id, arg = leader request id — attached to an in-flight      \
     computation of the same key */                                           \
  X(kServeCoalesce, "i", "coalesce", "serve", true)                           \
  /* id = batch sequence no., arg = batch size — a batch left the batcher     \
     for submit_bulk */                                                       \
  X(kServeBatch, "i", "batch", "serve", true)                                 \
  /* id = request id, arg = shard — backend work started */                   \
  X(kServeExecBegin, "B", "request", "serve", true)                           \
  /* id = request id — backend work finished */                               \
  X(kServeExecEnd, "E", "request", "serve", true)                             \
  /* id = request id, arg = latency ns — reply delivered */                   \
  X(kServeDone, "i", "done", "serve", true)                                   \
  /* Bounded channels (parc::flow). `id` is the channel's process-unique      \
     serial; push/pop carry occupancy *after* the operation so the exporter   \
     can draw per-channel occupancy counter tracks. */                        \
  /* id = channel id, arg = occupancy after the push */                       \
  X(kChanPush, "i", "chan-push", "flow", true)                                \
  /* id = channel id, arg = occupancy after the pop */                        \
  X(kChanPop, "i", "chan-pop", "flow", true)                                  \
  /* id = channel id, arg = 0 producer blocked on full, 1 consumer blocked    \
     on empty */                                                              \
  X(kChanFull, "i", "chan-block", "flow", true)                               \
  /* id = channel id, arg = 0 closed, 1 poisoned */                           \
  X(kChanClosed, "i", "chan-closed", "flow", true)                            \
  /* Replicated serving (serve::Router health/fault lifecycle). Replica       \
     transitions are keyed on *scheduled* arrival time, so a traced run's     \
     eject/probe sequence is a pure function of the seeded request stream. */ \
  /* id = request id, arg = replica index — router choice */                  \
  X(kReplicaPick, "i", "replica-pick", "serve", true)                         \
  /* id = request id, arg = replica index — request failed (injected fault    \
     or organic backend error) */                                             \
  X(kReplicaFail, "i", "replica-fail", "serve", true)                         \
  /* id = replica index, arg = consecutive failures — replica left the        \
     healthy rotation */                                                      \
  X(kEject, "i", "eject", "serve", true)                                      \
  /* id = replica index, arg = 0 half-open probe routed / 1 probe verdict ok  \
     (replica recovered) / 2 probe verdict failed (backoff doubled,           \
     re-ejected) */                                                           \
  X(kProbe, "i", "probe", "serve", true)                                      \
  /* id = request id, arg = priority — expired or refused by the              \
     priority/deadline admission ladder */                                    \
  X(kDeadlineShed, "i", "deadline-shed", "serve", true)
// clang-format on

enum class EventKind : std::uint8_t {
#define PARC_OBS_KIND_ENUM(kind, ph, name, cat, with_id) kind,
  PARC_OBS_EVENT_KINDS(PARC_OBS_KIND_ENUM)
#undef PARC_OBS_KIND_ENUM
};

/// One table row: how a kind is exported as a Chrome trace event.
struct EventKindInfo {
  std::string_view ph;    ///< "i", "B" or "E"
  std::string_view name;  ///< name stem ("#<id>" appended when with_id)
  std::string_view cat;
  bool with_id = false;
};

inline constexpr EventKindInfo kEventKindTable[] = {
#define PARC_OBS_KIND_INFO(kind, ph, name, cat, with_id) \
  {ph, name, cat, with_id},
  PARC_OBS_EVENT_KINDS(PARC_OBS_KIND_INFO)
#undef PARC_OBS_KIND_INFO
};

inline constexpr std::size_t kEventKindCount = std::size(kEventKindTable);

/// Table row of `kind`. A value outside the table (a corrupt byte) reads
/// as an "unknown" instant.
[[nodiscard]] constexpr EventKindInfo event_kind_info(EventKind kind) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  if (k < kEventKindCount) return kEventKindTable[k];
  return {"i", "unknown", "obs", false};
}

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
