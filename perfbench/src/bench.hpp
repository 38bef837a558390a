// Shared declarations of the PARC benchmark program: run options, the report
// every workload fills, and the entry points of the workloads and of the
// per-layer ladder.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace parc::sched {
class WorkStealingPool;
}
namespace parc::ptask {
class Runtime;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< CSV file for the spans of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured. `metrics` is the run's result (end-to-end metrics
/// untraced, per-layer metrics traced); `notes` are diagnostics printed
/// beside it (p99, generator lag, counts).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  /// The per-window or per-repetition values behind a median, printed so
  /// that a run's spread can be inspected.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
  SpanLog* spans = nullptr;  ///< non-null only in a traced run

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
};

// Workloads (serve_workloads.cpp, sort_workloads.cpp).
void run_serve(const Options& opt, bool hot, Report& r);
void run_pipesort(const Options& opt, Report& r);
void run_fork_join(const Options& opt, Report& r);

// Stand-ins for layers a workload does not drive, so that a traced run of
// every workload reports every per-layer metric.
void serve_standin(std::uint64_t seed, double seconds, Report& r);
void pipesort_standin(std::uint64_t seed, Report& r);

// The per-layer ladder (ladder.cpp): timed loops of calls into each
// module's public functions.
void sched_rung(parc::sched::WorkStealingPool& pool, Report& r);
void ptask_rung(parc::ptask::Runtime& rt, Report& r);
void pj_rung(Report& r);
void flow_rung(Report& r);
/// sched.steal_frac, sched.parks_per_1k and sched.helped_frac from the
/// pool's counters, as deltas since `before` was taken.
struct PoolCounts {
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  std::uint64_t parked = 0;
  std::uint64_t helped = 0;
};
[[nodiscard]] PoolCounts pool_counts(const parc::sched::WorkStealingPool& p);
void pool_metrics(const PoolCounts& before, const PoolCounts& after,
                  Report& r);
/// Sequential baselines: kernels.seq_sort_s on `n` seeded int64 and
/// pipesort.std_sort_s on the pipesort input.
void baseline_rung(std::size_t n, std::uint64_t seed, Report& r);
/// The kernels.seq_sort_s input size: fork_join's own input on fork_join,
/// the pipesort input size elsewhere.
[[nodiscard]] std::size_t seq_baseline_size(const std::string& workload);

}  // namespace perfbench
