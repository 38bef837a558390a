// parc::obs core: session semantics, per-thread lock-free buffers, drop
// accounting, the counters registry, and Chrome trace-event export — the
// exported JSON is validated against the trace-event schema with a small
// recursive-descent parser (no external JSON dependency).
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "flow/channel.hpp"
#include "sched/completion.hpp"
#include "sched/task_graph.hpp"
#include "sched/thread_pool.hpp"

namespace parc::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON model + recursive-descent parser, enough to validate the
// trace-event format: objects, arrays, strings, numbers, true/false/null.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the whole input; sets ok() false on any syntax error.
  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) ok_ = false;
    return v;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= s_.size()) return fail();
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return JsonValue{string()};
      case 't':
        return literal("true", JsonValue{true});
      case 'f':
        return literal("false", JsonValue{false});
      case 'n':
        return literal("null", JsonValue{nullptr});
      default:
        return number();
    }
  }

  JsonValue fail() {
    ok_ = false;
    return {};
  }

  JsonValue literal(const std::string& word, JsonValue result) {
    if (s_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return result;
    }
    return fail();
  }

  std::string string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            pos_ += 4;  // the tests only check structure, not code points
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) {
      ok_ = false;
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail();
    try {
      return JsonValue{std::stod(s_.substr(start, pos_ - start))};
    } catch (...) {
      return fail();
    }
  }

  JsonValue array() {
    auto arr = std::make_shared<JsonArray>();
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return JsonValue{arr};
    do {
      arr->push_back(value());
    } while (ok_ && consume(','));
    if (!consume(']')) return fail();
    return JsonValue{arr};
  }

  JsonValue object() {
    auto obj = std::make_shared<JsonObject>();
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return JsonValue{obj};
    do {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail();
      std::string key = string();
      if (!consume(':')) return fail();
      obj->emplace(std::move(key), value());
    } while (ok_ && consume(','));
    if (!consume('}')) return fail();
    return JsonValue{obj};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Session semantics.
// ---------------------------------------------------------------------------

TEST(ObsTrace, NoSessionMeansNoTracing) {
  EXPECT_FALSE(tracing());
  EXPECT_FALSE(session_active());
}

TEST(ObsTrace, SessionCollectsEventsEmittedWithinIt) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  TraceSession session;
  ASSERT_TRUE(tracing());
  const std::uint64_t a = next_id();
  const std::uint64_t b = next_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  emit(EventKind::kTaskSpawn, a, 0);
  emit(EventKind::kTaskStart, a, 0);
  emit(EventKind::kDepEdge, a, b);
  const TraceDump dump = session.end();
  EXPECT_FALSE(tracing());
  EXPECT_EQ(dump.total_events(), 3u);
  EXPECT_EQ(dump.count_kind(EventKind::kTaskSpawn), 1u);
  EXPECT_EQ(dump.count_kind(EventKind::kDepEdge), 1u);
  EXPECT_EQ(dump.total_dropped(), 0u);
}

TEST(ObsTrace, EventsOutsideASessionAreNotRecorded) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  {
    TraceSession warm;
    emit(EventKind::kTaskSpawn, next_id(), 0);
    (void)warm.end();
  }
  // No session live: well-gated hooks never reach emit(), and a fresh
  // session must start empty regardless of prior history.
  TraceSession session;
  const TraceDump dump = session.end();
  EXPECT_EQ(dump.total_events(), 0u);
}

TEST(ObsTrace, PerThreadTracksKeepEmissionOrderAndLabels) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  TraceSession session;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      label_thread("obs-test-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        emit(EventKind::kJobEnqueue, static_cast<std::uint64_t>(i + 1),
             static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  const TraceDump dump = session.end();
  EXPECT_EQ(dump.total_events(),
            static_cast<std::size_t>(kThreads * kPerThread));
  int labelled = 0;
  for (const auto& track : dump.tracks) {
    if (track.name.rfind("obs-test-", 0) != 0) continue;
    ++labelled;
    ASSERT_EQ(track.events.size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      // Single-writer buffers preserve program order within a thread.
      EXPECT_EQ(track.events[static_cast<std::size_t>(i)].id,
                static_cast<std::uint64_t>(i + 1));
    }
    // Timestamps are monotone within a track.
    for (std::size_t i = 1; i < track.events.size(); ++i) {
      EXPECT_GE(track.events[i].t_ns, track.events[i - 1].t_ns);
    }
  }
  EXPECT_EQ(labelled, kThreads);
}

TEST(ObsTrace, FullBufferDropsAndCounts) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  TraceSession session(TraceConfig{.events_per_thread = 8});
  for (int i = 0; i < 20; ++i) emit(EventKind::kJobEnqueue, 1, 0);
  const TraceDump dump = session.end();
  EXPECT_EQ(dump.total_events(), 8u);
  EXPECT_EQ(dump.total_dropped(), 12u);
}

// ---------------------------------------------------------------------------
// Counters registry.
// ---------------------------------------------------------------------------

TEST(ObsCounters, AddValueSnapshotRoundTrip) {
  auto& counters = Counters::global();
  counters.reset();
  counters.add("test.alpha", 3);
  counters.add("test.alpha", 4);
  counters.add("test.beta", 1);
  EXPECT_EQ(counters.value("test.alpha"), 7u);
  EXPECT_EQ(counters.value("test.beta"), 1u);
  EXPECT_EQ(counters.value("test.never-touched"), 0u);
  const auto snapshot = counters.snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  // Snapshot is name-sorted.
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
  counters.reset();
  EXPECT_EQ(counters.value("test.alpha"), 0u);
}

TEST(ObsCounters, ConcurrentAddsAreLossless) {
  auto& counters = Counters::global();
  counters.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAdds; ++i) Counters::global().add("test.race", 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counters.value("test.race"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export, validated against the schema.
// ---------------------------------------------------------------------------

TEST(ObsChromeTrace, ExportValidatesAgainstTraceEventSchema) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  // Record a real scheduler run so the dump carries every event class:
  // enqueues, exec spans, task spans, a dependence edge, thread labels.
  TraceDump dump;
  {
    TraceSession session;
    {
      sched::WorkStealingPool pool(
          sched::WorkStealingPool::Config{2, 4, "obs"});
      const std::uint64_t pred = next_id();
      const std::uint64_t succ = next_id();
      emit(EventKind::kTaskSpawn, pred, 0);
      emit(EventKind::kTaskSpawn, succ, 0);
      emit(EventKind::kDepEdge, pred, succ);
      emit(EventKind::kTaskStart, pred, 0);
      emit(EventKind::kTaskFinish, pred, 0);
      emit(EventKind::kTaskStart, succ, 0);
      emit(EventKind::kTaskFinish, succ, 0);
      // Two gate jobs, one per worker: each worker must pick one up (the
      // main thread does not help), so every worker demonstrably emits —
      // and therefore gets a labelled track — before the session ends.
      std::atomic<int> gated{0};
      std::atomic<bool> release{false};
      for (int i = 0; i < 2; ++i) {
        pool.submit([&gated, &release] {
          gated.fetch_add(1, std::memory_order_relaxed);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });
      }
      while (gated.load(std::memory_order_relaxed) < 2) {
        std::this_thread::yield();
      }
      release.store(true, std::memory_order_release);
      std::atomic<int> ran{0};
      for (int i = 0; i < 50; ++i) {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      pool.help_while([&] { return ran.load(std::memory_order_relaxed) < 50; });
    }  // pool destruction joins the workers: all their events are published
    dump = session.end();
  }
  ASSERT_GT(dump.total_events(), 0u);

  std::ostringstream os;
  write_chrome_trace(dump, os);
  const std::string json = os.str();

  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << "export is not well-formed JSON";
  ASSERT_TRUE(root.is_object());
  const auto& top = root.object();
  ASSERT_TRUE(top.count("traceEvents"));
  ASSERT_TRUE(top.at("traceEvents").is_array());
  const JsonArray& events = top.at("traceEvents").array();
  ASSERT_GT(events.size(), 0u);

  // Schema: every event needs ph/pid/tid; non-metadata events need a
  // numeric ts; B/E spans must balance per tid; flow events come in s/f
  // pairs sharing an id.
  std::map<double, int> open_spans_per_tid;
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const auto& e = ev.object();
    ASSERT_TRUE(e.count("ph"));
    ASSERT_TRUE(e.at("ph").is_string());
    const std::string& ph = e.at("ph").str();
    ASSERT_EQ(ph.size(), 1u);
    ASSERT_TRUE(e.count("pid"));
    ASSERT_TRUE(e.at("pid").is_number());
    ASSERT_TRUE(e.count("tid"));
    ASSERT_TRUE(e.at("tid").is_number());
    if (ph != "M") {
      ASSERT_TRUE(e.count("ts"));
      ASSERT_TRUE(e.at("ts").is_number());
      ASSERT_GE(e.at("ts").num(), 0.0);
      ASSERT_TRUE(e.count("name"));
      ASSERT_TRUE(e.at("name").is_string());
    }
    if (ph == "B") open_spans_per_tid[e.at("tid").num()]++;
    if (ph == "E") open_spans_per_tid[e.at("tid").num()]--;
    if (ph == "s") ++flow_starts;
    if (ph == "f") {
      ++flow_finishes;
      ASSERT_TRUE(e.count("bp"));  // bind to enclosing slice
    }
    if (ph == "s" || ph == "f") {
      ASSERT_TRUE(e.count("id"));
    }
  }
  for (const auto& [tid, open] : open_spans_per_tid) {
    EXPECT_EQ(open, 0) << "unbalanced B/E spans on tid " << tid;
  }
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);

  // Thread metadata: one name per recorded track, workers labelled.
  int names = 0;
  bool saw_worker = false;
  for (const JsonValue& ev : events) {
    const auto& e = ev.object();
    if (e.at("ph").str() != "M") continue;
    ASSERT_TRUE(e.count("name"));
    if (e.at("name").str() == "thread_name") {
      ++names;
      const auto& args = e.at("args").object();
      if (args.at("name").str().rfind("obs-w", 0) == 0) saw_worker = true;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(names), dump.tracks.size());
  EXPECT_TRUE(saw_worker) << "pool worker threads should be labelled";
}

// ---------------------------------------------------------------------------
// pair_spans: id-keyed begin/end pairing from the kind table.
// ---------------------------------------------------------------------------

Event make_event(EventKind kind, std::uint64_t t_ns, std::uint64_t id) {
  Event e;
  e.kind = kind;
  e.t_ns = t_ns;
  e.id = id;
  return e;
}

TEST(ObsPairSpans, PairsEndsByIdAndKeepsIncompleteSpans) {
  constexpr EventKind B = EventKind::kTaskStart;
  constexpr EventKind E = EventKind::kTaskFinish;
  TraceDump dump;
  dump.tracks.push_back(ThreadTrack{0, "a", {}, 0});
  dump.tracks.push_back(ThreadTrack{1, "b", {}, 0});
  dump.tracks[0].events = {
      make_event(B, 100, 1),  // id 1: ends on the other track
      make_event(E, 150, 2),  // id 2: no begin
      make_event(B, 200, 3),  // id 3: no end
      make_event(E, 300, 4),  // id 4: end stamped before its begin
      make_event(B, 400, 4),
      make_event(B, 500, 5),  // id 5: both ends repeat
      make_event(E, 600, 5),
      make_event(B, 700, 5),
      make_event(EventKind::kExecBegin, 50, 1),  // another span kind
  };
  dump.tracks[1].events = {make_event(E, 180, 1), make_event(E, 800, 5)};

  const auto spans = pair_spans(dump, B);
  ASSERT_EQ(spans.size(), 5u);

  const Span& s1 = spans.at(1);
  EXPECT_TRUE(s1.has_begin && s1.has_end);
  EXPECT_EQ(s1.begin_ns, 100u);
  EXPECT_EQ(s1.end_ns, 180u);
  EXPECT_EQ(s1.begin_tid, 0u);
  EXPECT_EQ(s1.end_tid, 1u);

  const Span& s2 = spans.at(2);
  EXPECT_FALSE(s2.has_begin);
  EXPECT_TRUE(s2.has_end);
  EXPECT_EQ(s2.end_ns, 150u);

  const Span& s3 = spans.at(3);
  EXPECT_TRUE(s3.has_begin);
  EXPECT_FALSE(s3.has_end);
  EXPECT_EQ(s3.begin_ns, 200u);

  // Reversed ends are reported as recorded; callers apply end >= begin.
  const Span& s4 = spans.at(4);
  EXPECT_TRUE(s4.has_begin && s4.has_end);
  EXPECT_EQ(s4.begin_ns, 400u);
  EXPECT_EQ(s4.end_ns, 300u);

  // Last write wins for each end, in track order.
  const Span& s5 = spans.at(5);
  EXPECT_EQ(s5.begin_ns, 700u);
  EXPECT_EQ(s5.end_ns, 800u);
  EXPECT_EQ(s5.end_tid, 1u);

  // The closing kind comes from the table: exec spans pair job ends only.
  const auto jobs = pair_spans(dump, EventKind::kExecBegin);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs.at(1).has_begin);
  EXPECT_FALSE(jobs.at(1).has_end);
  EXPECT_TRUE(pair_spans(dump, EventKind::kServeExecBegin).empty());
}

// ---------------------------------------------------------------------------
// Waiter contract: every blocking primitive that cannot help parks through
// the one spin-then-park waiter and records one join-wait span per blocked
// wait, on the waiting thread's own track.
// ---------------------------------------------------------------------------

/// Runs `wait` on a thread labelled "waiter" inside a trace session, calls
/// `release` once that thread has had ample time to spin out and park, and
/// checks the recorded join-wait span.
void expect_one_park_span(const std::function<void()>& wait,
                          const std::function<void()>& release) {
  // Small per-thread buffers: a thread's first event allocates its buffer,
  // and a large one (slow to allocate under TSan) would stall a channel
  // waiter, whose first event comes before it spins.
  TraceSession session(TraceConfig{.events_per_thread = 1024});
  std::atomic<bool> waiting{false};
  std::thread waiter([&] {
    label_thread("waiter");
    waiting.store(true);
    wait();
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release();
  waiter.join();
  const TraceDump dump = session.end();

  const ThreadTrack* track = nullptr;
  for (const auto& t : dump.tracks) {
    if (t.name == "waiter") track = &t;
  }
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(dump.count_kind(EventKind::kWaiterPark), 1u);
  EXPECT_EQ(dump.count_kind(EventKind::kWaiterWake), 1u);
  const auto spans = pair_spans(dump, EventKind::kWaiterPark);
  ASSERT_EQ(spans.size(), 1u);
  const Span& span = spans.begin()->second;
  EXPECT_TRUE(span.has_begin && span.has_end);
  EXPECT_LE(span.begin_ns, span.end_ns);
  EXPECT_EQ(span.begin_tid, track->tid);
  EXPECT_EQ(span.end_tid, track->tid);
}

TEST(ObsWaiterTrace, EveryBlockingPrimitiveRecordsOneParkSpan) {
  if (!kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  {
    SCOPED_TRACE("Completion");
    sched::Completion done;
    expect_one_park_span([&] { done.wait(11); }, [&] { done.complete(); });
  }
  {
    SCOPED_TRACE("JoinLatch without a pool");
    sched::JoinLatch latch;
    latch.add();
    expect_one_park_span([&] { latch.wait(nullptr, 12); },
                         [&] { latch.done(); });
  }
  {
    SCOPED_TRACE("Barrier without a pool");
    sched::Barrier barrier(2);
    expect_one_park_span([&] { barrier.arrive_and_wait(); },
                         [&] { barrier.arrive_and_wait(); });
  }
  {
    SCOPED_TRACE("Sequencer");
    sched::Sequencer seq(0);
    expect_one_park_span([&] { seq.wait_for(1, 13); },
                         [&] { seq.advance(); });
  }
  {
    SCOPED_TRACE("Channel consumer edge");
    flow::Channel<int> ch(flow::ChannelOptions{.capacity = 2});
    int got = 0;
    expect_one_park_span([&] { EXPECT_TRUE(ch.pop(got)); },
                         [&] { EXPECT_TRUE(ch.push(1)); });
  }
  {
    SCOPED_TRACE("Channel producer edge");
    flow::Channel<int> ch(flow::ChannelOptions{.capacity = 2, .spsc = true});
    EXPECT_TRUE(ch.push(1));
    EXPECT_TRUE(ch.push(2));
    int got = 0;
    expect_one_park_span([&] { EXPECT_TRUE(ch.push(3)); },
                         [&] { EXPECT_TRUE(ch.pop(got)); });
  }
}

}  // namespace
}  // namespace parc::obs
