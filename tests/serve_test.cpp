// The serving stack: workload determinism, admission decisions, the
// cache/coalesce/batch pipeline's exact conservation accounting, trace
// vocabulary, and the trace→DAG replay builder.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "obs/trace.hpp"
#include "serve/replay.hpp"
#include "serve/workload.hpp"
#include "sim/machine.hpp"

namespace parc::serve {
namespace {

TEST(LoadGenerator, DeterministicStream) {
  WorkloadConfig w;
  w.requests = 500;
  w.seed = 99;
  const auto a = generate(w);
  const auto b = generate(w);
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i + 1);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
  }
}

TEST(LoadGenerator, OpenLoopArrivalsMatchTheRate) {
  WorkloadConfig w;
  w.requests = 20000;
  w.arrival_rate = 10000.0;
  w.seed = 3;
  const auto reqs = generate(w);
  double prev = 0.0;
  for (const auto& r : reqs) {
    ASSERT_GT(r.arrival_s, prev);  // strictly increasing schedule
    prev = r.arrival_s;
  }
  // 20k exponential gaps at 10k/s: total ≈ 2 s within a few percent.
  EXPECT_NEAR(reqs.back().arrival_s, 2.0, 2.0 * 0.05);
}

TEST(LoadGenerator, ClosedLoopHasNoSchedule) {
  WorkloadConfig w;
  w.requests = 10;
  w.arrival_rate = 0.0;
  for (const auto& r : generate(w)) EXPECT_DOUBLE_EQ(r.arrival_s, 0.0);
}

TEST(LoadGenerator, MixAndSkewShapeTheStream) {
  WorkloadConfig w;
  w.requests = 30000;
  w.keyspace = 1000;
  w.key_skew = 1.2;
  w.weight_img = 0.6;
  w.weight_text = 0.3;
  w.weight_net = 0.1;
  w.seed = 11;
  std::size_t counts[kRequestKinds] = {0, 0, 0};
  std::size_t hot = 0;
  for (const auto& r : generate(w)) {
    ++counts[static_cast<std::size_t>(r.kind)];
    ASSERT_LT(r.key, w.keyspace);
    hot += r.key < 10;
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / 30000.0, 0.6, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 30000.0, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 30000.0, 0.1, 0.03);
  // Zipf: the 10 hottest of 1000 keys draw far more than 1% of requests.
  EXPECT_GT(hot, 30000u / 20);
}

TEST(CompositeKey, KindsNeverCollide) {
  EXPECT_NE(composite_key(RequestKind::img, 7),
            composite_key(RequestKind::text, 7));
  EXPECT_NE(composite_key(RequestKind::text, 7),
            composite_key(RequestKind::net, 7));
  EXPECT_EQ(composite_key(RequestKind::img, 7),
            composite_key(RequestKind::img, 7));
}

TEST(Admission, TokenBucketShedsAtTheConfiguredRate) {
  // 100/s, burst 10: offering 200 requests in the first second admits the
  // burst plus the refill, sheds the rest — exactly.
  AdmissionController adm(AdmissionConfig{100.0, 10.0, 0});
  std::uint64_t admitted = 0;
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>(i) / 200.0;
    if (adm.admit(t, Priority::high, 0.0, 0) ==
        AdmissionController::Decision::admit) {
      ++admitted;
    }
  }
  // 10 burst tokens + ~99.5 refilled over 0.995 s.
  EXPECT_GE(admitted, 105u);
  EXPECT_LE(admitted, 113u);
  const auto& s = adm.stats();
  EXPECT_EQ(s.offered, 200u);
  EXPECT_EQ(s.admitted + s.shed_rate + s.shed_queue, s.offered);
  EXPECT_EQ(s.shed_queue, 0u);
}

TEST(Admission, QueueBoundSheds) {
  AdmissionController adm(AdmissionConfig{0.0, 256.0, 4});
  EXPECT_EQ(adm.admit(0.0, Priority::high, 0.0, 3),
            AdmissionController::Decision::admit);
  EXPECT_EQ(adm.admit(0.0, Priority::high, 0.0, 4),
            AdmissionController::Decision::shed_queue);
  EXPECT_EQ(adm.admit(0.0, Priority::high, 0.0, 100),
            AdmissionController::Decision::shed_queue);
  EXPECT_EQ(adm.stats().shed_queue, 2u);
}

TEST(Backend, DeterministicPerKey) {
  BackendConfig cfg;
  Backend a(cfg);
  Backend b(cfg);
  for (std::uint64_t key : {0ull, 7ull, 12345ull}) {
    for (RequestKind kind : {RequestKind::img, RequestKind::text}) {
      const BackendResult ra = a.execute(kind, key);
      const BackendResult rb = b.execute(kind, key);
      EXPECT_TRUE(ra.ok());
      EXPECT_TRUE(rb.ok());
      EXPECT_EQ(ra.value, rb.value);
    }
  }
}

TEST(Backend, ImgValuesArePinned) {
  // Thumbnail content hashes are cached results: a faster render must
  // return exactly these (computed with per-pixel value noise and a
  // double-accumulating box filter), or cached values would change meaning.
  BackendConfig default_cfg;  // 24 x 24 -> 8 x 8, seed 42
  BackendConfig bench_cfg;    // the serving benchmark's 16 x 16 -> 8 x 8
  bench_cfg.img_source_dim = 16;
  bench_cfg.img_thumb_dim = 8;
  bench_cfg.seed = 81;
  Backend by_default(default_cfg);
  Backend by_bench(bench_cfg);
  struct Pin {
    std::uint64_t key;
    std::uint64_t default_value;
    std::uint64_t bench_value;
  };
  for (const Pin& pin : {
           Pin{0, 0xeafa5f688231c0d8ULL, 0x0b7675606518fe70ULL},
           Pin{1, 0xce60d6a171119b55ULL, 0xc6a97222118ea02bULL},
           Pin{7, 0x3477a0da7481b21aULL, 0x571d7f9e7bd17539ULL},
           Pin{12345, 0xd33c0c3fad3e6b6cULL, 0x938fcafe3378259dULL},
           Pin{0xDEADBEEF, 0xaf5ca7194d6fd357ULL, 0x43e0c93a0f462844ULL},
           Pin{1ULL << 40, 0xa7ba5d2b8ff0315bULL, 0xe7fee8f75abb922dULL},
       }) {
    const BackendResult d = by_default.execute(RequestKind::img, pin.key);
    const BackendResult b = by_bench.execute(RequestKind::img, pin.key);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(d.value, pin.default_value) << "key " << pin.key;
    EXPECT_EQ(b.value, pin.bench_value) << "key " << pin.key;
  }
}

ServerConfig small_server() {
  ServerConfig cfg;
  cfg.pool.num_threads = 2;
  cfg.pool.shards = 2;
  cfg.cache_capacity = 256;
  cfg.cache_stripes = 4;
  cfg.backend.img_source_dim = 12;
  cfg.backend.img_thumb_dim = 4;
  cfg.backend.text_chunks = 16;
  cfg.backend.text_chunk_bytes = 512;
  cfg.admission = AdmissionConfig{0.0, 256.0, 0};
  return cfg;
}

TEST(Server, ConservationHoldsAfterDrain) {
  ServerConfig cfg = small_server();
  cfg.cache_capacity = 2048;  // all composite keys fit every stripe: no
                              // evictions, so each key executes at most
                              // once (hit vs coalesce per duplicate
                              // depends on worker timing; their sum
                              // does not)
  Server server(cfg);
  WorkloadConfig w;
  w.requests = 20000;
  w.arrival_rate = 0.0;
  w.keyspace = 64;  // × 3 kinds = 192 distinct composite keys
  w.seed = 5;
  LoadGenerator gen(w);
  server.start();
  for (std::size_t i = 0; i < w.requests; ++i) {
    Request r = gen.next();
    r.arrival_s = server.now_s();
    (void)server.offer(r);
  }
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.offered, 20000u);
  EXPECT_EQ(s.offered,
            s.admitted + s.shed_rate + s.shed_queue + s.shed_deadline);
  EXPECT_EQ(s.admitted, s.completed + s.failed);
  EXPECT_EQ(s.admitted,
            s.hits_inline + s.negative_hits + s.coalesced + s.executed);
  EXPECT_EQ(s.cache.hits, s.hits_inline);
  EXPECT_EQ(s.cache.misses, s.executed + s.coalesced);
  EXPECT_EQ(s.cache.evictions, 0u);
  // ~One backend run per distinct key. A miss probed just before a
  // worker's cache.put lands re-executes that key once (rare, benign,
  // counted as executed) — hence slack above 192, but nowhere near the
  // 20000 offers.
  EXPECT_LT(s.executed, 192u + 64u);
  EXPECT_GT(s.hits_inline + s.coalesced, s.executed);
  const auto h = server.latency_histogram();
  EXPECT_EQ(h.count(), s.completed);
}

TEST(Server, SecondRequestForAKeyHitsTheCache) {
  Server server(small_server());
  server.start();
  Request r;
  r.id = 1;
  r.kind = RequestKind::text;
  r.key = 42;
  EXPECT_EQ(server.offer(r), Server::Outcome::dispatched);
  server.drain();
  r.id = 2;
  EXPECT_EQ(server.offer(r), Server::Outcome::hit);
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.hits_inline, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Server, DuplicateInFlightKeysCoalesce) {
  ServerConfig cfg = small_server();
  cfg.batch_max = 64;  // keep the batch unsealed: the leader cannot finish
  Server server(cfg);
  server.start();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Request r;
    r.id = i;
    r.kind = RequestKind::img;
    r.key = 9;
    const auto outcome = server.offer(r);
    if (i == 1) {
      EXPECT_EQ(outcome, Server::Outcome::dispatched);
    } else {
      EXPECT_EQ(outcome, Server::Outcome::coalesced);
    }
  }
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.executed, 1u);  // one backend run served all ten
  EXPECT_EQ(s.coalesced, 9u);
  EXPECT_EQ(s.completed, 10u);
}

TEST(Server, QueueBoundShedsWhileBatchesAreUnsealed) {
  ServerConfig cfg = small_server();
  cfg.batch_max = 64;
  cfg.admission = AdmissionConfig{0.0, 256.0, 2};
  Server server(cfg);
  server.start();
  Request r;
  r.kind = RequestKind::img;
  r.priority = Priority::high;  // full pending cap (the ladder trims lower
                                // classes to a fraction of max_pending)
  r.id = 1;
  r.key = 1;
  EXPECT_EQ(server.offer(r), Server::Outcome::dispatched);
  r.id = 2;
  r.key = 2;
  EXPECT_EQ(server.offer(r), Server::Outcome::dispatched);
  r.id = 3;
  r.key = 3;
  EXPECT_EQ(server.offer(r), Server::Outcome::shed);  // in_flight == 2
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.shed_queue, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Server, ShardRoutingIsStableAndInRange) {
  Server server(small_server());
  const std::size_t shards = server.pool().shard_count();
  EXPECT_EQ(shards, 2u);
  std::set<std::size_t> used;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto ckey = composite_key(RequestKind::net, k);
    const std::size_t s = server.shard_of(ckey);
    EXPECT_LT(s, shards);
    EXPECT_EQ(s, server.shard_of(ckey));
    used.insert(s);
  }
  EXPECT_EQ(used.size(), shards);  // 64 keys cover both shards
}

#if PARC_OBS_TRACE
TEST(Server, TraceEventsBalanceTheLedger) {
  ServerConfig cfg = small_server();
  Server server(cfg);
  WorkloadConfig w;
  w.requests = 2000;
  w.arrival_rate = 0.0;
  w.keyspace = 64;
  w.seed = 17;
  LoadGenerator gen(w);
  obs::TraceSession session(obs::TraceConfig{std::size_t{1} << 16});
  server.start();
  for (std::size_t i = 0; i < w.requests; ++i) {
    Request r = gen.next();
    r.arrival_s = server.now_s();
    (void)server.offer(r);
  }
  server.drain();
  const auto dump = session.end();
  EXPECT_EQ(dump.total_dropped(), 0u);
  const auto s = server.stats();
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeArrive), s.offered);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeDone),
            s.completed + s.failed);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeHit),
            s.hits_inline + s.negative_hits);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeCoalesce), s.coalesced);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeExecBegin), s.executed);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeExecEnd), s.executed);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeBatch), s.batches);
  EXPECT_EQ(dump.count_kind(obs::EventKind::kServeShed), 0u);
  // Every dispatched leader routes exactly once.
  EXPECT_EQ(dump.count_kind(obs::EventKind::kReplicaPick), s.executed);
  EXPECT_EQ(s.router.routed, s.executed);
}
#endif

TEST(Replay, BuildsChainPlusExecTasks) {
  // Hand-built trace: 3 arrivals 10 µs apart; requests 1 and 3 executed
  // for 50 µs each, request 2 was (say) a cache hit.
  obs::ThreadTrack track;
  track.tid = 0;
  track.name = "ingress";
  auto ev = [](obs::EventKind k, std::uint64_t t, std::uint64_t id,
               std::uint64_t arg = 0) {
    obs::Event e;
    e.kind = k;
    e.t_ns = t;
    e.id = id;
    e.arg = arg;
    return e;
  };
  track.events = {
      ev(obs::EventKind::kServeArrive, 10000, 1),
      ev(obs::EventKind::kServeArrive, 20000, 2),
      ev(obs::EventKind::kServeArrive, 30000, 3),
      ev(obs::EventKind::kServeExecBegin, 31000, 1),
      ev(obs::EventKind::kServeExecEnd, 81000, 1),
      ev(obs::EventKind::kServeExecBegin, 90000, 3),
      ev(obs::EventKind::kServeExecEnd, 140000, 3),
  };
  obs::TraceDump dump;
  dump.tracks.push_back(track);

  const ReplayDag replay = build_serve_dag(dump);
  EXPECT_EQ(replay.arrivals, 3u);
  EXPECT_EQ(replay.executed, 2u);
  EXPECT_EQ(replay.dag.size(), 5u);  // 3 chain + 2 exec
  EXPECT_NEAR(replay.ingress_span_s, 30e-6, 1e-12);
  EXPECT_NEAR(replay.exec_work_s, 100e-6, 1e-12);
  EXPECT_NEAR(replay.dag.total_work(), 130e-6, 1e-12);
  // Critical path: full chain + one exec = 30 + 50 µs.
  EXPECT_NEAR(replay.dag.critical_path(), 80e-6, 1e-12);
}

TEST(Replay, AttributesLoadToReplicas) {
  // Two executed requests routed to replicas 1 and 3; request 1 failed on
  // its replica. The unreplicated-trace path (no kReplicaPick) is covered
  // by BuildsChainPlusExecTasks above (replicas stays empty).
  obs::ThreadTrack track;
  auto ev = [](obs::EventKind k, std::uint64_t t, std::uint64_t id,
               std::uint64_t arg = 0) {
    obs::Event e;
    e.kind = k;
    e.t_ns = t;
    e.id = id;
    e.arg = arg;
    return e;
  };
  track.events = {
      ev(obs::EventKind::kServeArrive, 10000, 1),
      ev(obs::EventKind::kServeArrive, 20000, 2),
      ev(obs::EventKind::kReplicaPick, 10100, 1, 1),
      ev(obs::EventKind::kReplicaPick, 20100, 2, 3),
      ev(obs::EventKind::kReplicaFail, 60000, 1, 1),
      ev(obs::EventKind::kServeExecBegin, 11000, 1),
      ev(obs::EventKind::kServeExecEnd, 51000, 1),
      ev(obs::EventKind::kServeExecBegin, 21000, 2),
      ev(obs::EventKind::kServeExecEnd, 41000, 2),
  };
  obs::TraceDump dump;
  dump.tracks.push_back(track);

  const ReplayDag replay = build_serve_dag(dump);
  ASSERT_EQ(replay.requests.size(), 2u);
  EXPECT_EQ(replay.requests[0].replica, 1u);
  EXPECT_TRUE(replay.requests[0].failed);
  EXPECT_EQ(replay.requests[1].replica, 3u);
  EXPECT_FALSE(replay.requests[1].failed);
  ASSERT_EQ(replay.replicas.size(), 4u);
  EXPECT_EQ(replay.replicas[1].routed, 1u);
  EXPECT_EQ(replay.replicas[1].failed, 1u);
  EXPECT_NEAR(replay.replicas[1].exec_work_s, 40e-6, 1e-12);
  EXPECT_EQ(replay.replicas[3].routed, 1u);
  EXPECT_EQ(replay.replicas[3].failed, 0u);
  EXPECT_NEAR(replay.replicas[3].exec_work_s, 20e-6, 1e-12);
  EXPECT_EQ(replay.replicas[0].routed, 0u);
}

TEST(Replay, SimulatedCoresShowTheKnee) {
  // Synthetic serving trace: 400 arrivals every 2 µs, each executing for
  // 20 µs → parallelism ≈ 11. P=4 must be near-linear, P=64 saturated.
  obs::ThreadTrack track;
  std::uint64_t t = 0;
  for (std::uint64_t id = 1; id <= 400; ++id) {
    t += 2000;
    obs::Event a;
    a.kind = obs::EventKind::kServeArrive;
    a.t_ns = t;
    a.id = id;
    track.events.push_back(a);
    obs::Event b = a;
    b.kind = obs::EventKind::kServeExecBegin;
    b.t_ns = t + 100;
    track.events.push_back(b);
    obs::Event e = b;
    e.kind = obs::EventKind::kServeExecEnd;
    e.t_ns = b.t_ns + 20000;
    track.events.push_back(e);
  }
  obs::TraceDump dump;
  dump.tracks.push_back(track);
  const ReplayDag replay = build_serve_dag(dump);
  EXPECT_EQ(replay.executed, 400u);

  sim::SweepOptions sweep_opts;
  sweep_opts.cores = {1, 4, 64, 256};
  const sim::SweepTable table = sim::sweep(replay.dag, sweep_opts);
  const double sp1 = table.speedup_at(1);
  const double sp4 = table.speedup_at(4);
  const double sp64 = table.speedup_at(64);
  const double sp256 = table.speedup_at(256);
  EXPECT_NEAR(sp1, 1.0, 1e-9);
  EXPECT_GT(sp4, 3.0);
  EXPECT_GT(sp64, sp4);
  EXPECT_LT(sp256 / sp64, 1.05);  // deterministic gaps: knee is sharp
  EXPECT_LT(sp256, 12.5);         // bounded by the DAG's parallelism
}

}  // namespace
}  // namespace parc::serve
