// serve_hot and serve_cold: one serve::Server driven from this thread.
//
// Both run a closed-loop phase with kWindow requests outstanding (capacity)
// and an open-loop phase at a fixed absolute rate (latency, measured from
// each request's scheduled arrival). The rates are constants, not
// calibrated per run: a faster server must face the same offered load so
// that its gain shows.
//
// Threads: 3 pool workers plus this thread (the ingress and load
// generator), which helps run pool work while the closed-loop window is
// full; 4 in all, the host's nproc.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "conc/striped_map.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "stats.hpp"
#include "support/clock.hpp"

namespace perfbench {
namespace {

using parc::LogHistogram;
using parc::Stopwatch;
using namespace parc::serve;

constexpr double kHotRate = 400000.0;   // requests/s, serve_hot open loop
constexpr double kColdRate = 100000.0;  // requests/s, serve_cold open loop
constexpr std::size_t kWindow = 512;    // closed-loop requests outstanding
constexpr std::size_t kPoolWorkers = 3;
constexpr int kClosedChunks = 8;    // closed-loop chunks per run
constexpr int kSetupsPerChunk = 3;  // spare set-ups timed before each chunk

ServerConfig server_config(bool hot, std::uint64_t seed) {
  ServerConfig cfg;
  cfg.pool.name = "serve";
  cfg.pool.num_threads = kPoolWorkers;
  cfg.pool.shards = 1;
  // Cache and backend sizes of bench/bench_serve.cpp's serving config.
  cfg.cache_capacity = std::size_t{1} << 14;
  cfg.cache_stripes = 16;
  cfg.batch_max = 32;
  cfg.backend.img_source_dim = 16;
  cfg.backend.img_thumb_dim = 8;
  cfg.backend.text_chunk_bytes = 2048;
  cfg.backend.net_spin_iters = 2000;
  cfg.backend.pool.acquire_timeout_s = 10.0;
  cfg.router.replicas = hot ? 1 : 4;
  cfg.router.seed = seed;
  cfg.backend.seed = seed;
  // Admission is on, but sized so that a healthy run sheds nothing: the
  // token rate is far above what either phase offers and the pending bound
  // far above the closed-loop window.
  cfg.admission.rate = 8e6;
  cfg.admission.burst = 4096.0;
  cfg.admission.max_pending = std::size_t{1} << 16;
  return cfg;
}

/// Zipf 1.1 over 2^16 keys (hot) or unique keys (cold); default kind and
/// priority mixes. rate == 0 gives the closed-loop stream.
WorkloadConfig workload_config(bool hot, double rate, std::uint64_t seed) {
  WorkloadConfig w;
  w.requests = 1;  // streamed through LoadGenerator::next()
  w.arrival_rate = rate;
  w.keyspace = hot ? std::uint64_t{1} << 16 : std::uint64_t{1} << 40;
  w.key_skew = hot ? 1.1 : 0.0;
  w.seed = seed;
  return w;
}

struct ServeSetup {
  std::unique_ptr<Server> server;
  std::unique_ptr<LoadGenerator> open_gen;
  std::unique_ptr<LoadGenerator> closed_gen;
};

struct OpenLoop {
  std::vector<double> segment_p50_s;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double max_lag_s = 0.0;
};

/// Offer the scheduled stream until `seconds` of schedule have passed. The
/// phase is cut into `segments` equal spans of schedule; each reports the
/// median latency of the replies completed during it.
OpenLoop open_loop(Server& s, LoadGenerator& gen, double seconds,
                   int segments, SpanLog* spans) {
  OpenLoop out;
  SpanLog::Scope phase(spans, "serve.open_loop");
  const LogHistogram start = s.latency_histogram();
  LogHistogram base = start;
  const double seg_len = seconds / segments;
  const double t0 = s.now_s();
  double seg_end = t0 + seg_len;
  for (;;) {
    Request req = gen.next();
    req.arrival_s += t0;
    if (req.arrival_s >= t0 + seconds) break;
    if (req.arrival_s >= seg_end) {
      LogHistogram now = s.latency_histogram();
      out.segment_p50_s.push_back(percentile_since(now, base, 50.0));
      base = std::move(now);
      seg_end += seg_len;
    }
    if (s.now_s() < req.arrival_s) {
      // Ahead of schedule: send partial batches on before waiting.
      {
        SpanLog::Scope f(spans, "serve.flush");
        s.flush();
      }
      while (s.now_s() < req.arrival_s) {
      }
    } else {
      out.max_lag_s = std::max(out.max_lag_s, s.now_s() - req.arrival_s);
    }
    SpanLog::Scope o(spans, "serve.offer", req.id);
    (void)s.offer(req);
  }
  {
    SpanLog::Scope d(spans, "serve.drain");
    s.drain();
  }
  const LogHistogram end = s.latency_histogram();
  out.segment_p50_s.push_back(percentile_since(end, base, 50.0));
  out.p99_s = percentile_since(end, start, 99.0);
  out.p999_s = percentile_since(end, start, 99.9);
  return out;
}

/// Keep kWindow requests outstanding for `seconds`, cut into `windows`
/// equal spans of wall time; returns successful replies per second of each.
std::vector<double> closed_loop(Server& s, LoadGenerator& gen, double seconds,
                                int windows, SpanLog* spans) {
  std::vector<double> rates;
  SpanLog::Scope phase(spans, "serve.closed_loop");
  const double win_len = seconds / windows;
  Stopwatch sw;
  std::uint64_t done = s.stats().completed;
  double win_start = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    if ((i & 255) == 0) {
      const double now = sw.elapsed_s();
      if (now >= win_start + win_len) {
        const std::uint64_t completed = s.stats().completed;
        rates.push_back(static_cast<double>(completed - done) /
                        (now - win_start));
        done = completed;
        win_start = now;
        if (static_cast<int>(rates.size()) == windows) break;
      }
    }
    while (s.in_flight() >= kWindow) {
      // Partial batches must reach the pool before this thread waits.
      {
        SpanLog::Scope f(spans, "serve.flush");
        s.flush();
      }
      SpanLog::Scope h(spans, "sched.help_while");
      s.pool().help_while([&] { return s.in_flight() >= kWindow; });
    }
    Request req = gen.next();
    req.arrival_s = s.now_s();
    SpanLog::Scope o(spans, "serve.offer", req.id);
    (void)s.offer(req);
  }
  SpanLog::Scope d(spans, "serve.drain");
  s.drain();
  return rates;
}

/// Number of 0.25 s windows in a phase of `seconds` (at least 1).
int quarter_seconds(double seconds) {
  return std::max(1, static_cast<int>(seconds * 4.0));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Timed loops over the serving components the server calls internally,
/// fed the workload's own request stream: admission, result cache, router
/// and the three backends.
void component_rung(const ServerConfig& cfg, const WorkloadConfig& wc,
                    Report& r) {
  constexpr std::size_t kN = 200000;
  LoadGenerator gen(wc);
  std::vector<Request> reqs(kN);
  for (Request& q : reqs) q = gen.next();

  {
    SpanLog::Scope sp(r.spans, "ladder.admission");
    AdmissionController adm(cfg.admission);
    std::size_t admitted = 0;
    const std::int64_t t0 = now_ns();
    for (const Request& q : reqs) {
      admitted += adm.admit(q.arrival_s, q.priority, q.deadline_s, 0) ==
                  AdmissionController::Decision::admit;
    }
    r.metric("admission.admit_ns",
             static_cast<double>(now_ns() - t0) / kN, "ns");
    r.checks.expect(admitted == kN, "admission shed in a healthy config");
  }
  {
    // Warm the cache on the first half of the stream the way the server
    // does (get, put on a miss), then time gets and the puts of the
    // misses on the second half.
    SpanLog::Scope sp(r.spans, "ladder.cache");
    parc::conc::StripedLruCache<std::uint64_t, BackendResult> cache(
        cfg.cache_capacity, cfg.cache_stripes);
    std::vector<std::uint64_t> keys(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      keys[i] = composite_key(reqs[i].kind, reqs[i].key);
    }
    for (std::size_t i = 0; i < kN / 2; ++i) {
      if (!cache.get(keys[i])) cache.put(keys[i], BackendResult{keys[i]});
    }
    std::vector<std::uint64_t> missed;
    missed.reserve(kN / 2);
    std::int64_t t0 = now_ns();
    for (std::size_t i = kN / 2; i < kN; ++i) {
      if (!cache.get(keys[i])) missed.push_back(keys[i]);
    }
    r.metric("cache.get_ns",
             static_cast<double>(now_ns() - t0) / (kN - kN / 2), "ns");
    if (missed.empty()) missed.assign(keys.begin() + kN / 2, keys.end());
    t0 = now_ns();
    for (const std::uint64_t k : missed) cache.put(k, BackendResult{k});
    r.metric("cache.put_ns",
             static_cast<double>(now_ns() - t0) /
                 static_cast<double>(missed.size()),
             "ns");
  }
  {
    SpanLog::Scope sp(r.spans, "ladder.router");
    Router router(cfg.router);
    std::size_t in_range = 0;
    const std::int64_t t0 = now_ns();
    for (const Request& q : reqs) {
      in_range += router.route(q.id, q.arrival_s).replica < cfg.router.replicas;
    }
    r.metric("router.route_ns", static_cast<double>(now_ns() - t0) / kN,
             "ns");
    r.checks.expect(in_range == kN, "router picked a replica out of range");
  }
  {
    constexpr std::size_t kPerKind = 2000;
    SpanLog::Scope sp(r.spans, "ladder.backend");
    Backend backend(cfg.backend);
    const char* names[kRequestKinds] = {"backend.img_us", "backend.text_us",
                                        "backend.net_us"};
    for (std::size_t k = 0; k < kRequestKinds; ++k) {
      const auto kind = static_cast<RequestKind>(k);
      std::size_t calls = 0;
      const std::int64_t t0 = now_ns();
      for (const Request& q : reqs) {
        if (q.kind != kind) continue;
        const BackendResult res = backend.execute(kind, q.key);
        r.checks.expect(res.ok(), "backend execute failed");
        if (++calls == kPerKind) break;
      }
      r.metric(names[k],
               static_cast<double>(now_ns() - t0) / 1e3 /
                   static_cast<double>(std::max<std::size_t>(calls, 1)),
               "us");
    }
  }
}

/// serve.* per-layer metrics of a server the benchmark drove with spans.
void serve_layer_metrics(const Server::Stats& st, Report& r) {
  const auto summary = r.spans->summarize();
  const auto mean = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.mean_ns();
  };
  r.metric("serve.offer_ns", mean("serve.offer"), "ns");
  r.metric("serve.flush_ns", mean("serve.flush"), "ns");
  r.metric("serve.hit_frac", ratio(st.hits_inline, st.admitted), "frac");
  r.metric("serve.coalesce_frac", ratio(st.coalesced, st.admitted), "frac");
  r.metric("serve.batch_fill", ratio(st.executed, st.batches), "count");
}

void account(const Server::Stats& st, Report& r, const std::string& where) {
  r.checks.conservation(st, where);
  r.attempted += st.offered;
  r.failed += st.shed_rate + st.shed_queue + st.shed_deadline + st.failed;
}

}  // namespace

void run_serve(const Options& opt, bool hot, Report& r) {
  const ServerConfig cfg = server_config(hot, opt.seed);
  const double rate = hot ? kHotRate : kColdRate;

  // Set-up: construct the server and the two request streams.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    Stopwatch sw;
    ServeSetup su{std::make_unique<Server>(cfg),
                  std::make_unique<LoadGenerator>(
                      workload_config(hot, rate, opt.seed)),
                  std::make_unique<LoadGenerator>(
                      workload_config(hot, 0.0, opt.seed ^ 0x5eedull))};
    setup_s.push_back(sw.elapsed_s());
    return su;
  };
  const ServeSetup measured = set_up();
  Server& s = *measured.server;
  LoadGenerator* const open_gen = measured.open_gen.get();
  LoadGenerator* const closed_gen = measured.closed_gen.get();
  const PoolCounts pool_before = pool_counts(s.pool());
  s.start();

  if (!opt.trace) {
    // Most of the time goes to the closed loop, whose capacity is gated;
    // open-loop latency is reported but too unsteady on a shared 4-vCPU
    // host to gate (see README.md).
    const double open_s = opt.seconds * 0.3;
    const double closed_s = opt.seconds * 0.65;
    // The closed loop runs in chunks. Between chunks, with the measured
    // server drained, spare set-ups are timed, so that the setup_s samples
    // span the run instead of one moment of it.
    std::vector<double> rates;
    const double chunk_s = closed_s / kClosedChunks;
    for (int c = 0; c < kClosedChunks; ++c) {
      for (int i = 0; i < kSetupsPerChunk; ++i) (void)set_up();
      const std::vector<double> chunk = closed_loop(
          s, *closed_gen, chunk_s, quarter_seconds(chunk_s), nullptr);
      rates.insert(rates.end(), chunk.begin(), chunk.end());
    }
    // Peak RSS is read before the open loop: there a host stall queues
    // thousands of requests (up to 13 MB instead of 7 seen under steal), so
    // its peak measures the stall, not the server's footprint.
    const double rss_mb = peak_rss_mb();
    const OpenLoop ol =
        open_loop(s, *open_gen, open_s, quarter_seconds(open_s), nullptr);
    const Server::Stats st = s.stats();
    account(st, r, hot ? "serve_hot" : "serve_cold");
    const double capacity = median(rates);
    const double p50_us = median(ol.segment_p50_s) * 1e6;
    r.samples.emplace_back("capacity_rps", rates);
    r.samples.emplace_back("latency_p50_s", ol.segment_p50_s);
    r.samples.emplace_back("setup_s", setup_s);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("peak_rss_mb", rss_mb, "MB");
    r.metric("throughput_per_s", capacity, "1/s");
    r.note("peak_rss_with_open_loop_mb", peak_rss_mb(), "MB");
    r.note("capacity_rps", capacity, "1/s");
    r.note("latency_p50_us", p50_us, "us");
    r.note("latency_p99_us", ol.p99_s * 1e6, "us");
    r.note("latency_p999_us", ol.p999_s * 1e6, "us");
    r.note("generator_lag_max_ms", ol.max_lag_s * 1e3, "ms");
    r.note("offered_rate", rate, "1/s");
    r.note("hit_frac", ratio(st.hits_inline, st.admitted), "frac");
    return;
  }

  // Traced run: a short traced open-loop phase, then closed-loop windows
  // alternating untraced and traced (their capacity ratio is the tracing
  // overhead), then the ladder.
  (void)open_loop(s, *open_gen, std::min(1.0, opt.seconds * 0.1), 4,
                  r.spans);
  std::vector<double> untraced;
  std::vector<double> traced;
  const double win = std::min(0.25, opt.seconds * 0.025);
  for (int i = 0; i < 2; ++i) {
    for (double x : closed_loop(s, *closed_gen, win, 1, nullptr)) {
      untraced.push_back(x);
    }
    for (double x : closed_loop(s, *closed_gen, win, 1, r.spans)) {
      traced.push_back(x);
    }
  }
  const Server::Stats st = s.stats();
  account(st, r, hot ? "serve_hot" : "serve_cold");
  serve_layer_metrics(st, r);
  pool_metrics(pool_before, pool_counts(s.pool()), r);
  r.metric("bench.trace_overhead_frac", median(untraced) / median(traced) - 1,
           "frac");
  component_rung(cfg, workload_config(hot, rate, opt.seed), r);
  sched_rung(s.pool(), r);
}

void serve_standin(std::uint64_t seed, double seconds, Report& r) {
  const ServerConfig cfg = server_config(true, seed);
  Server s(cfg);
  LoadGenerator gen(workload_config(true, 0.0, seed));
  s.start();
  (void)closed_loop(s, gen, seconds, 1, r.spans);
  const Server::Stats st = s.stats();
  account(st, r, "serve stand-in");
  serve_layer_metrics(st, r);
  component_rung(cfg, workload_config(true, kHotRate, seed), r);
}

}  // namespace perfbench
