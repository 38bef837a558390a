#include "obs/trace.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/counters.hpp"
#include "support/check.hpp"

namespace parc::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// Kind-table invariants, checked once here rather than in every includer.
// The Chrome reader maps (ph, name, cat) back to a kind, and pair_spans
// looks up the one "E" kind that closes a "B" kind: both rely on them.

/// Number of rows with phase `ph` and the same (name, cat) as `like`.
constexpr std::size_t rows_like(std::string_view ph,
                                const EventKindInfo& like) {
  std::size_t n = 0;
  for (const EventKindInfo& r : kEventKindTable) {
    if (r.ph == ph && r.name == like.name && r.cat == like.cat) ++n;
  }
  return n;
}

constexpr bool kind_triples_unique() {
  for (const EventKindInfo& row : kEventKindTable) {
    if (rows_like(row.ph, row) != 1) return false;
  }
  return true;
}

constexpr bool spans_pair_one_to_one() {
  for (const EventKindInfo& row : kEventKindTable) {
    if (row.ph == "B" && rows_like("E", row) != 1) return false;
    if (row.ph == "E" && rows_like("B", row) != 1) return false;
  }
  return true;
}

static_assert(kind_triples_unique(),
              "two event kinds export the same (ph, name, cat)");
static_assert(spans_pair_one_to_one(),
              "every \"B\" kind needs exactly one \"E\" kind with the same "
              "(name, cat), and vice versa");

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Single-writer event buffer. Slots are written once; `count` is the
/// publication frontier (release on write, acquire on collect). The write
/// path never allocates, locks, or touches another thread's cache lines.
struct ThreadBuffer {
  std::vector<Event> slots;
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t origin_ns = 0;
  std::uint32_t tid = 0;
  std::string name;
};

/// Session registry: mutated only under `mutex` (session begin/end and a
/// thread's first event of a session — all cold paths).
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by mutex
  std::uint64_t epoch = 0;                             // guarded by mutex
  std::uint64_t origin_ns = 0;                         // guarded by mutex
  std::size_t capacity = 0;                            // guarded by mutex
  std::uint32_t next_tid = 0;                          // guarded by mutex
};

Registry& registry() {
  // Immortal: worker threads of leaked global pools may emit during static
  // destruction.
  static auto* r = new Registry();
  return *r;
}

/// Session epoch, bumped by trace_begin. The release store pairs with the
/// acquire in emit() so a writer that observes the new epoch also observes
/// the registry state (origin, capacity) set up for it.
std::atomic<std::uint64_t> g_epoch{0};

std::atomic<std::uint64_t> g_next_id{1};

// Writer-side cache: the buffer registered for the current epoch. The
// shared_ptr keeps a collected buffer alive for any laggard writer.
thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::uint64_t t_buffer_epoch = 0;
// This thread's display name. Labels are set at thread start and read at
// buffer registration, both strictly within the thread's lifetime, so a
// plain thread_local (destroyed at thread exit) is safe.
thread_local std::string t_label;

/// Slow path of emit(): first event of this thread in this session.
/// Registers a fresh buffer; leaves t_buffer null if the session already
/// ended (the registry moved on).
void register_thread(std::uint64_t epoch) {
  Registry& r = registry();
  std::scoped_lock lock(r.mutex);
  t_buffer_epoch = epoch;
  if (r.epoch != epoch) {
    t_buffer = nullptr;  // stale epoch: session ended before we got here
    return;
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->slots.resize(r.capacity);
  buffer->origin_ns = r.origin_ns;
  buffer->tid = r.next_tid++;
  buffer->name =
      !t_label.empty() ? t_label : "thread-" + std::to_string(buffer->tid);
  r.buffers.push_back(buffer);
  t_buffer = std::move(buffer);
}

}  // namespace

void emit(EventKind kind, std::uint64_t id, std::uint64_t arg) noexcept {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (epoch == 0) return;  // no session has ever started
  if (t_buffer_epoch != epoch) register_thread(epoch);
  ThreadBuffer* buffer = t_buffer.get();
  if (buffer == nullptr) return;
  const std::uint32_t i = buffer->count.load(std::memory_order_relaxed);
  if (i >= buffer->slots.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = buffer->slots[i];
  e.t_ns = now_ns() - buffer->origin_ns;
  e.id = id;
  e.arg = arg;
  e.kind = kind;
  buffer->count.store(i + 1, std::memory_order_release);
}

std::uint64_t next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void label_thread(std::string name) {
  if constexpr (!kTraceCompiled) return;
  t_label = std::move(name);
  // Mid-session relabel: rename the already-registered buffer in place (the
  // collector reads the name only after the session ends).
  if (t_buffer != nullptr && !t_label.empty()) t_buffer->name = t_label;
}

void trace_begin(TraceConfig cfg) {
  if constexpr (!kTraceCompiled) return;
  PARC_CHECK_MSG(!trace_enabled(), "trace_begin with a session already live");
  PARC_CHECK(cfg.events_per_thread >= 1);
  Registry& r = registry();
  {
    std::scoped_lock lock(r.mutex);
    r.buffers.clear();  // previous session's buffers die with their writers
    r.capacity = cfg.events_per_thread;
    r.origin_ns = now_ns();
    r.next_tid = 0;
    r.epoch = g_epoch.load(std::memory_order_relaxed) + 1;
    g_epoch.store(r.epoch, std::memory_order_release);
  }
  detail::g_trace_enabled.store(true, std::memory_order_seq_cst);
}

TraceDump trace_end() {
  TraceDump dump;
  if constexpr (!kTraceCompiled) return dump;
  detail::g_trace_enabled.store(false, std::memory_order_seq_cst);
  Registry& r = registry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::scoped_lock lock(r.mutex);
    dump.origin_ns = r.origin_ns;
    buffers.swap(r.buffers);
  }
  for (const auto& buffer : buffers) {
    ThreadTrack track;
    track.tid = buffer->tid;
    track.name = buffer->name;
    track.dropped = buffer->dropped.load(std::memory_order_relaxed);
    const std::uint32_t n = buffer->count.load(std::memory_order_acquire);
    track.events.assign(buffer->slots.begin(), buffer->slots.begin() + n);
    dump.tracks.push_back(std::move(track));
  }
  Counters::global().add("obs.trace.events", dump.total_events());
  Counters::global().add("obs.trace.dropped", dump.total_dropped());
  return dump;
}

std::size_t TraceDump::total_events() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tracks) n += t.events.size();
  return n;
}

std::uint64_t TraceDump::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& t : tracks) n += t.dropped;
  return n;
}

std::size_t TraceDump::count_kind(EventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& t : tracks) {
    for (const auto& e : t.events) n += (e.kind == kind) ? 1 : 0;
  }
  return n;
}

}  // namespace parc::obs
