// flow::Pipeline: stages connected by bounded channels (ISSUE 8).
//
// A pipeline is a chain of transform stages, each running on dedicated
// threads, connected by flow::Channel edges that provide backpressure end to
// end: a slow stage fills its inbox, which blocks the stage feeding it, all
// the way back to Pipeline::push. Stage threads are *dedicated*
// std::threads, never long-running pool jobs — a pool job blocked on a full
// channel could have its consumer nested under it by cooperative helping
// (the bounded-buffer deadlock documented in conc/task_safe.hpp). The pool
// is used only for finite leaf fan-out inside a stage (`pool_batch`), where
// helping is safe because leaf jobs never touch a channel.
//
// Stage shapes. A stage callable takes the element by value/rvalue and
// returns either `Out` (map) or `std::optional<Out>` (filter / stateful
// accumulate: nullopt emits nothing). A callable with a `flush()` member is
// called once per replica after its input closes, to emit held state (the
// pipesort merge stage's leftover run). Every replica owns a private copy
// of the callable, so stateful stages need no locking.
//
// Stage fusion is a compile-time rule: adjacent stages added with
// `.then(fn)` (a bare callable, no options, no flush() member) fuse into
// one materialized stage — function composition, no intermediate channel,
// no extra thread. Wrapping a callable in `flow::stage(fn, opts)` (or
// giving it a flush() member) forces a materialization boundary.
// `Pipeline::stage_count()` reports materialized stages so tests can assert
// the rule.
//
// Per-stage parallelism: `StageOptions::parallelism` runs N replicas
// popping one shared inbox (element order across replicas is not
// preserved); `StageOptions::pool_batch` keeps one runner thread that pops
// batches and fans each batch out to the scheduler via submit_n with
// shard-affine routing (PR 6), preserving order.
//
// Batched consume: a single-replica stage thread, the collector and a
// one-thread for_each sink drain their inbox with pop_n(kDrainBatch), so
// the channel's head publish, counter bump and wake check are paid once per
// run of buffered elements. Replicas take one element at a time, so none
// hoards work a sibling could run.
//
// Error propagation: a throwing stage captures the first error
// (sched::FirstError), poisons both its channels, and the poison cascades —
// upstream pushes fail and poison their own inboxes, downstream consumers
// drain-and-exit. Pipeline::wait() joins every thread, sweeps all channels
// (counting stragglers as dropped, keeping pushed == popped + dropped
// exact), then rethrows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "flow/channel.hpp"
#include "obs/trace.hpp"
#include "sched/task_graph.hpp"
#include "sched/thread_pool.hpp"
#include "support/check.hpp"

namespace parc::flow {

struct PipelineOptions {
  /// Default capacity for every channel without a per-stage override.
  std::size_t capacity = 256;
  /// Required for pool_batch stages; unused otherwise.
  sched::WorkStealingPool* pool = nullptr;
  /// Promise that Pipeline::push/try_push/push_n are called from at most
  /// one thread at a time — lets a serial first stage get the SPSC ring.
  bool single_producer = false;
};

struct StageOptions {
  /// Replica threads popping this stage's inbox. >1 stops preserving
  /// element order across the stage.
  std::size_t parallelism = 1;
  /// This stage's inbox capacity; 0 = the pipeline default.
  std::size_t capacity = 0;
  /// >0: one runner thread pops batches of this size and fans each batch
  /// out to the pool (submit_n, shard-affine), pushing results in order.
  /// The callable must be safe to invoke concurrently (stateless).
  std::size_t pool_batch = 0;
  /// Locality domain for pool_batch fan-out; kAnyShard = stage index mod
  /// the pool's shard count.
  std::size_t shard = sched::WorkStealingPool::kAnyShard;
  std::string name;
};

/// Wrap a callable to force a materialization boundary and attach options.
template <typename F>
struct Staged {
  F fn;
  StageOptions opts;
};

template <typename F>
[[nodiscard]] Staged<std::decay_t<F>> stage(F&& fn, StageOptions opts = {}) {
  return {std::forward<F>(fn), std::move(opts)};
}

/// Element type of for_each pipelines (no collected output).
struct Unit {};

/// Per-stage snapshot: the stage's *input* channel tells the backpressure
/// story (occupancy/high-water/blocked time of whoever feeds it).
struct StageStats {
  std::string name;
  std::size_t parallelism = 1;
  ChannelStats input;
};

struct PipelineStats {
  std::vector<StageStats> stages;  ///< transform stages, then the sink
};

namespace detail {

/// Most elements a single consumer takes from its inbox per pop_n.
inline constexpr std::size_t kDrainBatch = 64;

/// Elements per pop_n for one of `par` consumers of a shared inbox.
inline std::size_t drain_batch(std::size_t par) {
  return par == 1 ? kDrainBatch : 1;
}

template <typename T>
struct emit_of {
  using type = T;
  static constexpr bool filtered = false;
};
template <typename U>
struct emit_of<std::optional<U>> {
  using type = U;
  static constexpr bool filtered = true;
};

template <typename G>
inline constexpr bool has_flush_v = requires(G& g) { g.flush(); };

/// One replica's private pair of callables (fresh state per replica).
template <typename H, typename C>
struct ReplicaFns {
  std::function<std::optional<C>(H&&)> fn;
  std::function<std::optional<C>()> flush;  ///< null when the stage has none
};

/// Build a replica factory from a user callable: each call hands out
/// closures over a *fresh copy* of `g`, so stateful stages never share.
template <typename H, typename G>
auto make_factory(G g) {
  using R = std::invoke_result_t<G&, H&&>;
  using C = typename emit_of<R>::type;
  return std::function<ReplicaFns<H, C>()>([g] {
    auto st = std::make_shared<G>(g);
    ReplicaFns<H, C> rf;
    rf.fn = [st](H&& h) -> std::optional<C> {
      if constexpr (emit_of<R>::filtered) {
        return (*st)(std::move(h));
      } else {
        return std::optional<C>((*st)(std::move(h)));
      }
    };
    if constexpr (has_flush_v<G>) {
      rf.flush = [st]() -> std::optional<C> {
        using FR = decltype(st->flush());
        if constexpr (emit_of<FR>::filtered) {
          return st->flush();
        } else {
          return std::optional<C>(st->flush());
        }
      };
    }
    return rf;
  });
}

/// Fuse: compose a downstream bare callable into an existing factory.
/// Only reachable when neither side has flush (compile-time rule).
template <typename H, typename C, typename G>
auto fuse_factory(std::function<ReplicaFns<H, C>()> pf, G g) {
  using R = std::invoke_result_t<G&, C&&>;
  using N = typename emit_of<R>::type;
  auto gf = make_factory<C>(std::move(g));
  return std::function<ReplicaFns<H, N>()>([pf, gf] {
    auto a = pf();
    auto b = gf();
    ReplicaFns<H, N> rf;
    rf.fn = [a, b](H&& h) -> std::optional<N> {
      auto r = a.fn(std::move(h));
      if (!r) return std::nullopt;
      return b.fn(std::move(*r));
    };
    return rf;
  });
}

struct StageRecord {
  std::string name;
  std::size_t parallelism = 1;
  std::function<ChannelStats()> input_stats;
};

struct PipelineCore {
  PipelineOptions opts;
  std::vector<std::thread> threads;
  std::vector<StageRecord> stages;  ///< materialized transform stages
  std::vector<StageRecord> sinks;   ///< collector / for_each record
  std::vector<std::function<std::size_t()>> sweepers;
  std::vector<std::function<void()>> poisoners;
  sched::FirstError error;

  ~PipelineCore() {
    // Abandoned builder / facade destroyed without wait(): unblock every
    // stage before joining so teardown cannot hang.
    bool live = false;
    for (auto& t : threads) live = live || t.joinable();
    if (live) {
      for (auto& p : poisoners) p();
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  }
};

template <typename T>
std::shared_ptr<Channel<T>> make_channel(const std::shared_ptr<PipelineCore>& core,
                                         ChannelOptions co) {
  auto ch = std::make_shared<Channel<T>>(co);
  core->sweepers.push_back([ch] { return ch->discard_all(); });
  core->poisoners.push_back([ch] { ch->poison(); });
  return ch;
}

/// Launch one materialized stage: `parallelism` replica threads (or one
/// pool_batch runner per replica) popping `in`, pushing `out`; the last
/// replica out closes the output.
template <typename H, typename C>
void start_stage(const std::shared_ptr<PipelineCore>& core,
                 std::shared_ptr<Channel<H>> in,
                 std::shared_ptr<Channel<C>> out,
                 const std::function<ReplicaFns<H, C>()>& factory,
                 const StageOptions& o, const std::string& name) {
  const std::size_t par = o.parallelism == 0 ? 1 : o.parallelism;
  auto remaining = std::make_shared<std::atomic<std::size_t>>(par);
  const std::size_t batch = o.pool_batch;
  const std::size_t shard_opt = o.shard;
  const std::size_t stage_index = core->stages.size();
  if (batch > 0) {
    PARC_CHECK_MSG(core->opts.pool != nullptr,
                   "pool_batch stage requires PipelineOptions::pool");
  }
  for (std::size_t r = 0; r < par; ++r) {
    auto rf = factory();  // private callable state per replica
    std::string label = par > 1 ? name + "-" + std::to_string(r) : name;
    core->threads.emplace_back([core, in, out, rf = std::move(rf),
                                remaining, par, batch, shard_opt, stage_index,
                                label = std::move(label)]() mutable {
      obs::label_thread(label);
      bool clean = true;
      try {
        if (batch == 0) {
          const std::size_t take = drain_batch(par);
          std::vector<H> items;
          while (clean && in->pop_n(items, take) != 0) {
            for (H& item : items) {
              auto res = rf.fn(std::move(item));
              if (res && !out->push(std::move(*res))) {
                // Downstream closed under us: stop feeding, stop upstream.
                in->poison();
                clean = false;
                break;
              }
            }
            items.clear();
          }
        } else {
          auto* pool = core->opts.pool;
          const std::size_t shard =
              shard_opt != sched::WorkStealingPool::kAnyShard
                  ? shard_opt % pool->shard_count()
                  : stage_index % pool->shard_count();
          std::vector<H> items;
          items.reserve(batch);
          while (clean) {
            items.clear();
            if (in->pop_n(items, batch) == 0) break;
            const std::size_t n = items.size();
            std::vector<std::optional<C>> results(n);
            sched::JoinLatch join;
            join.add(n);
            pool->submit_n(
                n,
                [&](std::size_t i) {
                  return [&rf, &items, &results, &join, core, i] {
                    try {
                      results[i] = rf.fn(std::move(items[i]));
                    } catch (...) {
                      core->error.capture(std::current_exception());
                    }
                    join.done();
                  };
                },
                sched::SubmitHint::remote, shard);
            // Leaf jobs never touch a channel, so helping here is safe.
            join.wait(pool);
            if (core->error.has_error()) {
              in->poison();
              out->poison();
              clean = false;
              break;
            }
            for (auto& res : results) {
              if (res && !out->push(std::move(*res))) {
                in->poison();
                clean = false;
                break;
              }
            }
          }
        }
        if (clean && rf.flush) {
          if (auto tail = rf.flush()) (void)out->push(std::move(*tail));
        }
      } catch (...) {
        core->error.capture(std::current_exception());
        in->poison();
        out->poison();
      }
      if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        out->close();
      }
    });
  }
}

template <typename C>
void start_collect(const std::shared_ptr<PipelineCore>& core,
                   std::shared_ptr<Channel<C>> in,
                   std::shared_ptr<std::vector<C>> results) {
  core->sinks.push_back(
      {"collect", 1, [in] { return in->stats(); }});
  core->threads.emplace_back([core, in, results] {
    obs::label_thread("flow-collect");
    try {
      while (in->pop_n(*results, kDrainBatch) != 0) {
      }
    } catch (...) {
      core->error.capture(std::current_exception());
      in->poison();
    }
  });
}

template <typename C, typename Sink>
void start_for_each(const std::shared_ptr<PipelineCore>& core,
                    std::shared_ptr<Channel<C>> in, Sink sink,
                    std::size_t parallelism) {
  const std::size_t par = parallelism == 0 ? 1 : parallelism;
  core->sinks.push_back(
      {"for_each", par, [in] { return in->stats(); }});
  for (std::size_t r = 0; r < par; ++r) {
    core->threads.emplace_back([core, in, sink, par]() mutable {
      obs::label_thread("flow-sink");
      try {
        const std::size_t take = drain_batch(par);
        std::vector<C> items;
        while (in->pop_n(items, take) != 0) {
          for (C& v : items) sink(std::move(v));
          items.clear();
        }
      } catch (...) {
        core->error.capture(std::current_exception());
        in->poison();
      }
    });
  }
}

}  // namespace detail

/// The running pipeline handle returned by collect()/for_each(). Push from
/// the producing side, close() when the stream ends, wait() for results.
template <typename In, typename Out>
class Pipeline {
 public:
  Pipeline(std::shared_ptr<detail::PipelineCore> core,
           std::shared_ptr<Channel<In>> source,
           std::shared_ptr<std::vector<Out>> results)
      : core_(std::move(core)),
        source_(std::move(source)),
        results_(std::move(results)) {}

  /// Blocking feed; false once the pipeline closed/poisoned.
  bool push(In v) { return source_->push(std::move(v)); }
  [[nodiscard]] PushResult try_push(In& v) { return source_->try_push(v); }
  std::size_t push_n(std::span<In> items) { return source_->push_n(items); }

  /// End of input. Cascades stage by stage as each drains.
  void close() { source_->close(); }
  /// Abort: every channel drains-and-drops, stages exit promptly.
  void poison() { source_->poison(); }

  /// Close (idempotent), join every stage thread, sweep all channels so
  /// pushed == popped + dropped holds exactly, rethrow the first stage
  /// error, and hand back the collected output.
  std::vector<Out> wait() {
    source_->close();
    for (auto& t : core_->threads) {
      if (t.joinable()) t.join();
    }
    std::uint64_t swept = 0;
    for (auto& sweep : core_->sweepers) swept += sweep();
    swept_dropped_ += swept;
    if (auto e = core_->error.take()) std::rethrow_exception(e);
    return results_ ? std::move(*results_) : std::vector<Out>{};
  }

  /// Materialized transform stages (fusion collapses bare .then chains).
  [[nodiscard]] std::size_t stage_count() const {
    return core_->stages.size();
  }

  [[nodiscard]] ChannelStats source_stats() const { return source_->stats(); }

  [[nodiscard]] PipelineStats stats() const {
    PipelineStats ps;
    for (const auto& rec : core_->stages) {
      ps.stages.push_back({rec.name, rec.parallelism, rec.input_stats()});
    }
    for (const auto& rec : core_->sinks) {
      ps.stages.push_back({rec.name, rec.parallelism, rec.input_stats()});
    }
    return ps;
  }

  /// Elements discarded by the post-join sweep (error/poison paths).
  [[nodiscard]] std::uint64_t swept_dropped() const { return swept_dropped_; }

 private:
  std::shared_ptr<detail::PipelineCore> core_;
  std::shared_ptr<Channel<In>> source_;
  std::shared_ptr<std::vector<Out>> results_;
  std::uint64_t swept_dropped_ = 0;
};

/// Builder type-state: In = pipeline input; Head = element type of the
/// channel feeding the pending (not yet materialized) stage group; Cur =
/// the pending group's output type; HasPending/Open drive the compile-time
/// fusion rule (Open: the group still accepts bare-callable fusion).
template <typename In, typename Head, typename Cur, bool HasPending,
          bool Open>
class PipelineBuilder {
 public:
  explicit PipelineBuilder(PipelineOptions opts)
      : core_(std::make_shared<detail::PipelineCore>()) {
    core_->opts = std::move(opts);
  }

  PipelineBuilder(std::shared_ptr<detail::PipelineCore> core,
                  std::shared_ptr<Channel<In>> source,
                  std::shared_ptr<Channel<Head>> head,
                  std::function<detail::ReplicaFns<Head, Cur>()> factory,
                  StageOptions pending_opts)
      : core_(std::move(core)),
        source_(std::move(source)),
        head_(std::move(head)),
        factory_(std::move(factory)),
        pending_opts_(std::move(pending_opts)) {}

  /// Bare callable: fuses into the pending group when both sides allow it
  /// (compile-time rule), else starts/extends a materialized boundary.
  template <typename G>
  [[nodiscard]] auto then(G g) && {
    using GF = std::decay_t<G>;
    if constexpr (!HasPending) {
      auto f = detail::make_factory<Head>(GF(std::move(g)));
      using C = typename factory_emit<decltype(f)>::type;
      return PipelineBuilder<In, Head, C, true, !detail::has_flush_v<GF>>(
          std::move(core_), std::move(source_), std::move(head_),
          std::move(f), StageOptions{});
    } else if constexpr (Open && !detail::has_flush_v<GF>) {
      auto f = detail::fuse_factory<Head, Cur>(std::move(factory_),
                                               GF(std::move(g)));
      using C = typename factory_emit<decltype(f)>::type;
      return PipelineBuilder<In, Head, C, true, true>(
          std::move(core_), std::move(source_), std::move(head_),
          std::move(f), std::move(pending_opts_));
    } else {
      return std::move(*this)
          .then(Staged<GF>{std::move(g), StageOptions{}});
    }
  }

  /// Staged callable: always a materialization boundary for the pending
  /// group; the new group is still open to bare-callable fusion unless the
  /// callable carries flush state.
  template <typename G>
  [[nodiscard]] auto then(Staged<G> s) && {
    auto f = detail::make_factory<Cur>(std::move(s.fn));
    using C = typename factory_emit<decltype(f)>::type;
    std::shared_ptr<Channel<Cur>> head;
    if constexpr (HasPending) {
      head = materialize(effective_par(s.opts), s.opts.capacity);
    } else {
      head = ensure_source_for(effective_par(s.opts), s.opts.capacity);
    }
    return PipelineBuilder<In, Cur, C, true, !detail::has_flush_v<G>>(
        std::move(core_), std::move(source_), std::move(head), std::move(f),
        std::move(s.opts));
  }

  /// Terminal: single collector thread gathers the last stage's output.
  [[nodiscard]] Pipeline<In, Cur> collect() && {
    std::shared_ptr<Channel<Cur>> last;
    if constexpr (HasPending) {
      last = materialize(1, 0);
    } else {
      last = ensure_source();
    }
    auto results = std::make_shared<std::vector<Cur>>();
    detail::start_collect(core_, last, results);
    return Pipeline<In, Cur>(std::move(core_), std::move(source_),
                             std::move(results));
  }

  /// Terminal: apply `sink` to each element, collect nothing.
  template <typename Sink>
  [[nodiscard]] Pipeline<In, Unit> for_each(Sink sink,
                                            std::size_t parallelism = 1) && {
    std::shared_ptr<Channel<Cur>> last;
    if constexpr (HasPending) {
      last = materialize(parallelism, 0);
    } else {
      last = ensure_source();
    }
    detail::start_for_each(core_, last, std::move(sink), parallelism);
    return Pipeline<In, Unit>(std::move(core_), std::move(source_), nullptr);
  }

 private:
  template <typename, typename, typename, bool, bool>
  friend class PipelineBuilder;

  template <typename F>
  struct factory_emit;
  template <typename H, typename C>
  struct factory_emit<std::function<detail::ReplicaFns<H, C>()>> {
    using type = C;
  };

  static std::size_t effective_par(const StageOptions& o) {
    return o.parallelism == 0 ? 1 : o.parallelism;
  }

  /// Create the source channel on first need. SPSC only under the
  /// single_producer promise with a serial first consumer.
  std::shared_ptr<Channel<In>> ensure_source() {
    return ensure_source_for(1, 0);
  }

  std::shared_ptr<Channel<In>> ensure_source_for(std::size_t consumer_par,
                                                 std::size_t cap) {
    if (!source_) {
      ChannelOptions co;
      co.capacity = cap != 0 ? cap : core_->opts.capacity;
      co.spsc = core_->opts.single_producer && consumer_par == 1;
      co.stripes =
          co.spsc ? 1 : std::min<std::size_t>(4, std::max<std::size_t>(
                                                     1, consumer_par));
      source_ = detail::make_channel<In>(core_, co);
    }
    return source_;
  }

  /// Launch the pending group; returns its output channel (the next
  /// group's inbox, sized for `next_par` consumers).
  std::shared_ptr<Channel<Cur>> materialize(std::size_t next_par,
                                            std::size_t next_cap) {
    static_assert(HasPending);
    const std::size_t par = effective_par(pending_opts_);
    if constexpr (std::is_same_v<Head, In>) {
      if (!head_) head_ = ensure_source_for(par, pending_opts_.capacity);
    }
    PARC_CHECK(head_ != nullptr);
    ChannelOptions co;
    co.capacity = next_cap != 0 ? next_cap : core_->opts.capacity;
    // Each replica (or pool_batch runner) is a producer on the out edge.
    co.spsc = par == 1 && next_par == 1;
    co.stripes = co.spsc ? 1
                         : std::min<std::size_t>(
                               4, std::max(par, std::max<std::size_t>(
                                                    1, next_par)));
    auto out = detail::make_channel<Cur>(core_, co);
    std::string name = pending_opts_.name.empty()
                           ? "flow-stage" + std::to_string(core_->stages.size())
                           : pending_opts_.name;
    core_->stages.push_back(
        {name, par, [in = head_] { return in->stats(); }});
    detail::start_stage<Head, Cur>(core_, head_, out, factory_,
                                   pending_opts_, name);
    return out;
  }

  std::shared_ptr<detail::PipelineCore> core_;
  std::shared_ptr<Channel<In>> source_;
  std::shared_ptr<Channel<Head>> head_;
  std::function<detail::ReplicaFns<Head, Cur>()> factory_;
  StageOptions pending_opts_;
};

/// Entry point: flow::pipeline<T>(opts).then(...).collect().
template <typename In>
[[nodiscard]] auto pipeline(PipelineOptions opts = {}) {
  return PipelineBuilder<In, In, In, false, false>(std::move(opts));
}

}  // namespace parc::flow
