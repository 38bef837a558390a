// The three request executors behind the serving stack.
//
//  - img: render a thumbnail — generate the procedural "photo" named by the
//    key and box-filter it down, returning the content hash (the cacheable
//    result a real image service would store). The render hashes each noise
//    lattice point once per image, not four times per pixel per octave; its
//    output is bit-identical to per-pixel value noise.
//  - text: search — scan the corpus chunk named by the key for a
//    key-derived needle (BMH literal search), returning the match count.
//  - net: web fetch — check a connection out of a keep-alive pool keyed by
//    the key's host, burn the modelled transfer cost as CPU spin work
//    (sleeping would idle a pool worker; the serving stack measures
//    scheduling, not timers), and return the byte count.
//
// All three are pure functions of the key (given the construction-time
// seed), so results are cacheable and every run is reproducible. Execute
// is called concurrently from pool workers: the corpus is immutable after
// construction and the connection pool is internally synchronised.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/downloader.hpp"
#include "serve/request.hpp"

namespace parc::serve {

struct BackendConfig {
  std::uint32_t img_source_dim = 24;  ///< rendered source is dim × dim
  std::uint32_t img_thumb_dim = 8;
  std::size_t text_chunks = 256;      ///< corpus chunks generated up front
  std::size_t text_chunk_bytes = 4096;
  std::uint32_t net_hosts = 8;
  std::uint64_t net_spin_iters = 4000;  ///< modelled transfer cost (CPU)
  net::PoolOptions pool;                ///< keep-alive pool caps/timeout
  std::uint64_t seed = 42;
};

/// Why an execution failed. `timeout` is the organic "503 from upstream"
/// path (net pool exhausted past its acquire budget); `injected` marks a
/// FaultPlan verdict materialised by the worker (the replica was in an
/// error/blackout window at the request's scheduled arrival).
enum class BackendError : std::uint8_t { none = 0, timeout = 1, injected = 2 };

/// Typed execution result. A zero `value` with `error == none` is a real
/// answer ("fetched 0 bytes"); any other error means the request FAILED and
/// must be counted/propagated as a failure, never cached as a value.
struct BackendResult {
  std::uint64_t value = 0;
  BackendError error = BackendError::none;
  [[nodiscard]] bool ok() const noexcept { return error == BackendError::none; }
};

class Backend {
 public:
  explicit Backend(BackendConfig cfg);

  /// Do the work for (kind, key). On success `.value` is the cacheable
  /// result; a net-pool acquire timeout surfaces as
  /// `{0, BackendError::timeout}` instead of a silent 0 sentinel, so
  /// callers can distinguish "fetched 0 bytes" from "503".
  [[nodiscard]] BackendResult execute(RequestKind kind, std::uint64_t key);

  /// Connection-pool telemetry (net requests only).
  [[nodiscard]] net::ConnectionPool::Stats pool_stats() const {
    return pool_.stats();
  }
  /// Net fetches that could not get a connection before the pool timeout
  /// (they complete with BackendError::timeout).
  [[nodiscard]] std::uint64_t net_timeouts() const noexcept {
    return net_timeouts_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const BackendConfig& config() const noexcept { return cfg_; }

 private:
  BackendConfig cfg_;
  std::vector<std::string> corpus_;  ///< immutable after construction
  net::ConnectionPool pool_;
  std::atomic<std::uint64_t> net_timeouts_{0};
};

}  // namespace parc::serve
