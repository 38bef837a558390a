#include "memmodel/demos.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/clock.hpp"

namespace parc::memmodel {

std::string to_string(Sync s) {
  switch (s) {
    case Sync::kUnsynchronised: return "unsynchronised";
    case Sync::kAtomicRmw: return "atomic-rmw";
    case Sync::kMutex: return "mutex";
    case Sync::kSeqCst: return "seq-cst";
    case Sync::kAcqRel: return "acq-rel";
  }
  return "?";
}

DemoResult lost_update_demo(Sync sync, std::uint64_t increments,
                            unsigned threads) {
  PARC_CHECK(threads >= 2);
  std::atomic<std::uint64_t> counter{0};
  std::mutex mutex;
  std::atomic<unsigned> started{0};
  std::atomic<unsigned> loaded{0};
  // Returns once all `threads` have arrived at `gate`.
  auto rendezvous = [threads](std::atomic<unsigned>& gate) {
    gate.fetch_add(1, std::memory_order_acq_rel);
    while (gate.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
  };

  Stopwatch sw;
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        // Start gate: all threads overlap even with slow thread creation.
        rendezvous(started);
        for (std::uint64_t i = 0; i < increments; ++i) {
          switch (sync) {
            case Sync::kUnsynchronised: {
              // The bug in slow motion: load, (maybe lose the CPU), store.
              // The first increment waits between its load and its store
              // until every thread has loaded, so all of them store 1 and
              // at least threads - 1 updates are lost on any host, whether
              // or not the threads happen to overlap later.
              const std::uint64_t v =
                  counter.load(std::memory_order_relaxed);
              if (i == 0) {
                rendezvous(loaded);
              } else if ((i & 0x3F) == 0) {
                std::this_thread::yield();
              }
              counter.store(v + 1, std::memory_order_relaxed);
              break;
            }
            case Sync::kAtomicRmw:
              counter.fetch_add(1, std::memory_order_relaxed);
              break;
            case Sync::kMutex: {
              std::scoped_lock lock(mutex);
              counter.store(counter.load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
              break;
            }
            case Sync::kSeqCst:
              counter.fetch_add(1, std::memory_order_seq_cst);
              break;
            case Sync::kAcqRel:
              counter.fetch_add(1, std::memory_order_acq_rel);
              break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  DemoResult r;
  r.trials = static_cast<std::uint64_t>(threads) * increments;
  const std::uint64_t final_value = counter.load();
  r.anomalies = r.trials - final_value;  // lost updates
  r.ns_per_op = sw.elapsed_ns() / static_cast<double>(r.trials);
  return r;
}

DemoResult store_buffer_litmus(Sync sync, std::uint64_t trials) {
  const auto order = sync == Sync::kSeqCst ? std::memory_order_seq_cst
                     : sync == Sync::kAcqRel
                         ? std::memory_order_acq_rel
                         : std::memory_order_relaxed;
  const auto store_order =
      order == std::memory_order_acq_rel ? std::memory_order_release : order;
  const auto load_order =
      order == std::memory_order_acq_rel ? std::memory_order_acquire : order;

  std::atomic<int> x{0}, y{0};
  std::atomic<int> r1{0}, r2{0};
  // Sense-reversing micro-barrier so both threads start each trial together.
  std::atomic<std::uint64_t> round{0};
  std::atomic<int> arrived{0};
  std::atomic<bool> stop{false};
  std::uint64_t anomalies = 0;

  auto sync_point = [&](std::uint64_t expected_round) {
    if (arrived.fetch_add(1, std::memory_order_acq_rel) == 1) {
      arrived.store(0, std::memory_order_relaxed);
      round.fetch_add(1, std::memory_order_release);
    } else {
      // Spin briefly, then yield: on a single-core host the partner can
      // only make progress when we give up the quantum.
      std::size_t spins = 0;
      while (round.load(std::memory_order_acquire) == expected_round) {
        if (++spins > 128) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  };

  Stopwatch sw;
  std::thread partner([&] {
    std::uint64_t my_round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      sync_point(my_round);
      ++my_round;
      y.store(1, store_order);
      r2.store(x.load(load_order), std::memory_order_relaxed);
      sync_point(my_round);
      ++my_round;
    }
  });

  std::uint64_t my_round = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    x.store(0, std::memory_order_relaxed);
    y.store(0, std::memory_order_relaxed);
    sync_point(my_round);
    ++my_round;
    x.store(1, store_order);
    r1.store(y.load(load_order), std::memory_order_relaxed);
    sync_point(my_round);
    ++my_round;
    if (r1.load(std::memory_order_relaxed) == 0 &&
        r2.load(std::memory_order_relaxed) == 0) {
      ++anomalies;
    }
  }
  stop.store(true, std::memory_order_release);
  // Release the partner from its current sync point.
  round.fetch_add(4, std::memory_order_release);
  partner.join();

  DemoResult r;
  r.trials = trials;
  r.anomalies = anomalies;
  r.ns_per_op = sw.elapsed_ns() / static_cast<double>(trials);
  return r;
}

DemoResult unsafe_publication_demo(Sync sync, std::uint64_t trials) {
  const auto store_order = sync == Sync::kSeqCst ? std::memory_order_seq_cst
                           : sync == Sync::kAcqRel ? std::memory_order_release
                                                   : std::memory_order_relaxed;
  const auto load_order = sync == Sync::kSeqCst ? std::memory_order_seq_cst
                          : sync == Sync::kAcqRel ? std::memory_order_acquire
                                                  : std::memory_order_relaxed;

  struct Payload {
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };
  Payload payload;
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> round{0};
  std::atomic<std::uint64_t> torn{0};

  Stopwatch sw;
  std::thread reader([&] {
    std::uint64_t seen = 0;
    for (;;) {
      std::size_t spins = 0;
      while (!ready.load(load_order)) {
        if (stop.load(std::memory_order_acquire)) return;
        if (++spins > 128) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      // Payload reads are relaxed: any ordering must come from the flag.
      const std::uint64_t a = payload.a.load(std::memory_order_relaxed);
      const std::uint64_t b = payload.b.load(std::memory_order_relaxed);
      if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
      ready.store(false, std::memory_order_relaxed);
      ++seen;
      round.store(seen, std::memory_order_release);
    }
  });

  for (std::uint64_t t = 1; t <= trials; ++t) {
    // The two payload halves are written unequal first, equal last, to
    // widen the torn-read window under reordering.
    payload.a.store(t, std::memory_order_relaxed);
    payload.b.store(t, std::memory_order_relaxed);
    ready.store(true, store_order);
    // Wait for the reader to consume this round.
    std::size_t spins = 0;
    while (round.load(std::memory_order_acquire) != t) {
      if (++spins > 128) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  DemoResult r;
  r.trials = trials;
  r.anomalies = torn.load();
  r.ns_per_op = sw.elapsed_ns() / static_cast<double>(trials);
  return r;
}

DemoResult check_then_act_demo(Sync sync, std::uint64_t slots,
                               unsigned threads) {
  PARC_CHECK(threads >= 2);
  PARC_CHECK(slots >= 1);
  // claimed[k] holds the claiming thread id + 1 (0 = free); over_claimed
  // counts claims that landed on an already-claimed slot.
  std::vector<std::atomic<std::uint32_t>> claimed(slots);
  for (auto& c : claimed) c.store(0);
  std::atomic<std::uint64_t> double_claims{0};
  std::mutex mutex;
  std::atomic<unsigned> started{0};

  Stopwatch sw;
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < threads) {
          std::this_thread::yield();
        }
        for (std::uint64_t k = 0; k < slots; ++k) {
          switch (sync) {
            case Sync::kUnsynchronised: {
              // if (!claimed) { ...window... claimed = me }
              if (claimed[k].load(std::memory_order_relaxed) == 0) {
                if ((k & 0x1F) == 0) std::this_thread::yield();
                const std::uint32_t prev = claimed[k].exchange(
                    t + 1, std::memory_order_relaxed);
                if (prev != 0) double_claims.fetch_add(1);
              }
              break;
            }
            case Sync::kAtomicRmw: {
              std::uint32_t expected = 0;
              claimed[k].compare_exchange_strong(expected, t + 1,
                                                 std::memory_order_relaxed);
              break;
            }
            case Sync::kMutex: {
              std::scoped_lock lock(mutex);
              if (claimed[k].load(std::memory_order_relaxed) == 0) {
                claimed[k].store(t + 1, std::memory_order_relaxed);
              }
              break;
            }
            case Sync::kSeqCst: {
              std::uint32_t expected = 0;
              claimed[k].compare_exchange_strong(expected, t + 1,
                                                 std::memory_order_seq_cst);
              break;
            }
            case Sync::kAcqRel: {
              std::uint32_t expected = 0;
              claimed[k].compare_exchange_strong(expected, t + 1,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire);
              break;
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  DemoResult r;
  r.trials = slots * threads;
  r.anomalies = double_claims.load();
  r.ns_per_op = sw.elapsed_ns() / static_cast<double>(r.trials);
  return r;
}

DemoResult double_checked_locking_demo(Sync sync, std::uint64_t trials,
                                       unsigned threads) {
  PARC_CHECK(threads >= 2);
  struct Lazy {
    std::atomic<std::uint64_t> payload{0};
  };

  std::atomic<std::uint64_t> init_count{0};
  std::atomic<std::uint64_t> torn_reads{0};

  Stopwatch sw;
  for (std::uint64_t t = 0; t < trials; ++t) {
    Lazy object;
    std::atomic<Lazy*> instance{nullptr};
    std::mutex init_mutex;
    std::once_flag once;
    std::atomic<unsigned> started{0};
    std::atomic<std::uint64_t> local_inits{0};

    auto get_instance = [&]() -> Lazy* {
      switch (sync) {
        case Sync::kUnsynchronised: {
          // The broken classic: unlocked fast path with relaxed ordering —
          // a reader can see the pointer before the payload write.
          Lazy* p = instance.load(std::memory_order_relaxed);
          if (p == nullptr) {
            std::scoped_lock lock(init_mutex);
            p = instance.load(std::memory_order_relaxed);
            if (p == nullptr) {
              object.payload.store(0xFEEDFACE, std::memory_order_relaxed);
              local_inits.fetch_add(1);
              instance.store(&object, std::memory_order_relaxed);
              p = &object;
            }
          }
          return p;
        }
        case Sync::kAcqRel: {
          // Correct DCL: release publish, acquire observe (CP.111).
          Lazy* p = instance.load(std::memory_order_acquire);
          if (p == nullptr) {
            std::scoped_lock lock(init_mutex);
            p = instance.load(std::memory_order_acquire);
            if (p == nullptr) {
              object.payload.store(0xFEEDFACE, std::memory_order_relaxed);
              local_inits.fetch_add(1);
              instance.store(&object, std::memory_order_release);
              p = &object;
            }
          }
          return p;
        }
        case Sync::kSeqCst: {
          Lazy* p = instance.load(std::memory_order_seq_cst);
          if (p == nullptr) {
            std::scoped_lock lock(init_mutex);
            p = instance.load(std::memory_order_seq_cst);
            if (p == nullptr) {
              object.payload.store(0xFEEDFACE, std::memory_order_relaxed);
              local_inits.fetch_add(1);
              instance.store(&object, std::memory_order_seq_cst);
              p = &object;
            }
          }
          return p;
        }
        case Sync::kMutex: {
          // No double-check at all: every access takes the lock.
          std::scoped_lock lock(init_mutex);
          Lazy* p = instance.load(std::memory_order_relaxed);
          if (p == nullptr) {
            object.payload.store(0xFEEDFACE, std::memory_order_relaxed);
            local_inits.fetch_add(1);
            instance.store(&object, std::memory_order_relaxed);
            p = &object;
          }
          return p;
        }
        case Sync::kAtomicRmw: {
          // The modern answer: std::call_once (CP.110's recommendation).
          std::call_once(once, [&] {
            object.payload.store(0xFEEDFACE, std::memory_order_relaxed);
            local_inits.fetch_add(1);
            instance.store(&object, std::memory_order_release);
          });
          return instance.load(std::memory_order_acquire);
        }
      }
      return nullptr;
    };

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < threads) {
        }
        Lazy* p = get_instance();
        if (p->payload.load(std::memory_order_relaxed) != 0xFEEDFACE) {
          torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : workers) w.join();
    if (local_inits.load() != 1) init_count.fetch_add(1);
  }

  DemoResult r;
  r.trials = trials;
  r.anomalies = torn_reads.load() + init_count.load();
  r.ns_per_op = sw.elapsed_ns() / static_cast<double>(trials);
  return r;
}

}  // namespace parc::memmodel
