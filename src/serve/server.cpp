#include "serve/server.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace parc::serve {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t mix(std::uint64_t x) noexcept {
  // splitmix64 finaliser: decorrelates the shard choice from the cache /
  // coalescer stripe choice (which use other bit ranges of the same key).
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      pool_(std::make_unique<sched::WorkStealingPool>(cfg_.pool)),
      backend_(cfg_.backend),
      admission_(cfg_.admission),
      router_(cfg_.router),
      cache_(cfg_.cache_capacity, cfg_.cache_stripes),
      ctr_admitted_(obs::Counters::global().get("serve.admitted")),
      ctr_shed_(obs::Counters::global().get("serve.shed")),
      ctr_completed_(obs::Counters::global().get("serve.completed")) {
  PARC_CHECK(cfg_.batch_max >= 1);
  PARC_CHECK(cfg_.cache_ttl_s >= 0.0);
  PARC_CHECK(cfg_.negative_ttl_s >= 0.0);
  router_.set_fault_plan(cfg_.fault_plan);
  const std::size_t stripes = round_up_pow2(std::max<std::size_t>(
      1, cfg_.cache_stripes));
  coalesce_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    coalesce_.push_back(std::make_unique<CoalesceStripe>());
  }
  ingress_.reserve(pool_->shard_count());
  for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
    ingress_.push_back(std::make_unique<flow::Channel<ExecItem>>(
        flow::ChannelOptions{.capacity = cfg_.batch_max, .spsc = true}));
  }
  seal_scratch_.reserve(cfg_.batch_max);
}

Server::~Server() { drain(); }

std::size_t Server::shard_of(std::uint64_t ckey) const noexcept {
  return static_cast<std::size_t>(mix(ckey) % pool_->shard_count());
}

Server::Outcome Server::offer(const Request& req) {
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kServeArrive, req.id,
              static_cast<std::uint64_t>(req.kind));
  }
  const auto decision =
      admission_.admit(req.arrival_s, req.priority, req.deadline_s,
                       in_flight_.load(std::memory_order_relaxed));
  if (decision != AdmissionController::Decision::admit) {
    ctr_shed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      if (decision == AdmissionController::Decision::shed_deadline) {
        obs::emit(obs::EventKind::kDeadlineShed, req.id,
                  static_cast<std::uint64_t>(req.priority));
      } else {
        obs::emit(
            obs::EventKind::kServeShed, req.id,
            decision == AdmissionController::Decision::shed_rate ? 0 : 1);
      }
    }
    return Outcome::shed;
  }
  ctr_admitted_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_release);

  const std::uint64_t ckey = composite_key(req.kind, req.key);
  if (const auto cached = cache_.get(ckey, req.arrival_s)) {
    const bool ok = cached->ok();
    if (ok) {
      hits_inline_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Negative hit: a recent execution of this key failed; fail fast
      // instead of re-dispatching into the same dead upstream.
      negative_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kServeHit, req.id, ok ? 0 : 1);
    }
    complete_one(req.id, req.arrival_s, req.priority, ok);
    return Outcome::hit;
  }

  {
    CoalesceStripe& st = coalesce_stripe(ckey);
    std::scoped_lock lock(st.mutex);
    auto [it, inserted] = st.nodes.try_emplace(ckey);
    if (!inserted) {
      it->second.waiters.push_back(Waiter{req.id, req.arrival_s,
                                          req.priority});
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (obs::tracing()) [[unlikely]] {
        obs::emit(obs::EventKind::kServeCoalesce, req.id,
                  it->second.leader_id);
      }
      return Outcome::coalesced;
    }
    it->second.leader_id = req.id;
  }

  // Leader: pick a replica and settle the fault verdict now, on the ingress
  // thread, so health transitions are a pure function of the stream (the
  // worker only materialises the verdict).
  const Router::Route rt = router_.route(req.id, req.arrival_s);

  const std::size_t shard = shard_of(ckey);
  flow::Channel<ExecItem>& chan = *ingress_[shard];
  ExecItem item{ckey,        req.kind,
                req.key,     req.id,
                req.arrival_s, shard,
                rt.replica,  rt.verdict.slow_factor,
                rt.verdict.fail, req.priority};
  if (chan.try_push(item) != flow::PushResult::ok) {
    // Capacity rounds up past batch_max, so this only fires if a seal was
    // somehow missed; never block the ingress — hand off and retry.
    seal_batch(shard);
    PARC_CHECK(chan.try_push(item) == flow::PushResult::ok);
  }
  if (chan.occupancy() >= cfg_.batch_max) seal_batch(shard);
  return Outcome::dispatched;
}

void Server::seal_batch(std::size_t shard) {
  flow::Channel<ExecItem>& chan = *ingress_[shard];
  seal_scratch_.clear();
  // One run: one head publish and one wake check per sealed batch.
  if (chan.try_pop_n(seal_scratch_, chan.capacity()) == 0) return;
  ++batches_sealed_;
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kServeBatch, batches_sealed_,
              seal_scratch_.size());
  }
  // One closure per request, one wakeup for the whole batch, routed to the
  // key's locality domain (remote: the ingress is not a pool worker).
  auto make_job = [this](ExecItem item) {
    return [this, item] { execute_item(item); };
  };
  std::vector<decltype(make_job(ExecItem{}))> jobs;
  jobs.reserve(seal_scratch_.size());
  for (const ExecItem& it : seal_scratch_) jobs.push_back(make_job(it));
  pool_->submit_bulk(std::span(jobs), sched::SubmitHint::remote, shard);
}

void Server::execute_item(const ExecItem& item) {
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kServeExecBegin, item.leader_id, item.shard);
  }
  const double exec_begin_s = clock_.elapsed_s();
  BackendResult result;
  if (item.injected_fail) {
    // Blackout / error-window verdict: the replica refuses the request.
    // Fail fast — no backend work, like a connection refused.
    result = BackendResult{0, BackendError::injected};
  } else {
    // A slowdown window models a saturated upstream serving slowly rather
    // than erroring: the worker re-executes the work slow_factor times.
    for (std::uint32_t rep = 0; rep < item.slow_factor; ++rep) {
      result = backend_.execute(item.kind, item.key);
    }
  }
  const double exec_s = clock_.elapsed_s() - exec_begin_s;
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kServeExecEnd, item.leader_id);
  }
  const bool ok = result.ok();
  // Publish the result BEFORE retiring the in-flight node: an ingress that
  // finds neither the cache entry nor the node would re-execute, so the
  // window where both are absent must not exist. Failures are published
  // only when negative caching is on (and expire fast); successes carry
  // the configured TTL (0 = never expires).
  if (ok) {
    cache_.put(item.ckey, result,
               cfg_.cache_ttl_s > 0.0 ? item.arrival_s + cfg_.cache_ttl_s
                                      : 0.0);
  } else if (cfg_.negative_ttl_s > 0.0) {
    cache_.put(item.ckey, result, item.arrival_s + cfg_.negative_ttl_s);
  }
  std::vector<Waiter> waiters;
  {
    CoalesceStripe& st = coalesce_stripe(item.ckey);
    std::scoped_lock lock(st.mutex);
    auto it = st.nodes.find(item.ckey);
    PARC_CHECK(it != st.nodes.end());
    waiters = std::move(it->second.waiters);
    st.nodes.erase(it);
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  // Feed the measured service time back into the replica's EWMA score. An
  // organic failure (ok == false without an injected verdict, e.g. a net
  // pool timeout) also advances the replica's failure streak here.
  router_.on_complete(item.leader_id, item.replica, ok, item.injected_fail,
                      exec_s, item.arrival_s);
  complete_one(item.leader_id, item.arrival_s, item.priority, ok);
  for (const Waiter& w : waiters) {
    complete_one(w.id, w.arrival_s, w.priority, ok);
  }
}

void Server::complete_one(std::uint64_t id, double arrival_s,
                          Priority priority, bool ok) {
  const double latency_s = std::max(0.0, clock_.elapsed_s() - arrival_s);
  if (ok) {
    LatencySlot& slot = latency_[id & (kLatSlots - 1)];
    std::scoped_lock lock(slot.mutex);
    slot.hist[static_cast<std::size_t>(priority)].add(latency_s);
  }
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kServeDone, id,
              static_cast<std::uint64_t>(latency_s * 1e9));
  }
  ctr_completed_.fetch_add(1, std::memory_order_relaxed);
  if (ok) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void Server::flush() {
  for (std::size_t s = 0; s < ingress_.size(); ++s) seal_batch(s);
}

std::vector<flow::ChannelStats> Server::ingress_stats() const {
  std::vector<flow::ChannelStats> out;
  out.reserve(ingress_.size());
  for (const auto& chan : ingress_) out.push_back(chan->stats());
  return out;
}

void Server::drain() {
  flush();
  pool_->help_while(
      [this] { return in_flight_.load(std::memory_order_acquire) > 0; });
}

Server::Stats Server::stats() const {
  Stats out;
  const auto& a = admission_.stats();
  out.offered = a.offered;
  out.admitted = a.admitted;
  out.shed_rate = a.shed_rate;
  out.shed_queue = a.shed_queue;
  out.shed_deadline = a.shed_deadline;
  out.offered_by = a.offered_by;
  out.admitted_by = a.admitted_by;
  out.shed_by = a.shed_by;
  out.hits_inline = hits_inline_.load(std::memory_order_relaxed);
  out.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.executed = executed_.load(std::memory_order_relaxed);
  out.batches = batches_sealed_;
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.in_flight = in_flight_.load(std::memory_order_acquire);
  out.cache = cache_.stats();
  out.net_timeouts = backend_.net_timeouts();
  out.router = router_.stats();
  return out;
}

LogHistogram Server::latency_histogram() const {
  LogHistogram merged(1e-7, 1e2);
  for (const LatencySlot& slot : latency_) {
    std::scoped_lock lock(slot.mutex);
    for (const LogHistogram& h : slot.hist) merged.merge(h);
  }
  return merged;
}

LogHistogram Server::latency_histogram(Priority p) const {
  LogHistogram merged(1e-7, 1e2);
  const auto idx = static_cast<std::size_t>(p);
  for (const LatencySlot& slot : latency_) {
    std::scoped_lock lock(slot.mutex);
    merged.merge(slot.hist[idx]);
  }
  return merged;
}

}  // namespace parc::serve
