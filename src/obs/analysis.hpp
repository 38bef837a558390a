// Post-run trace analysis: reconstruct the task graph a run actually
// executed, hand it to the deterministic machine model for replay, and
// report its work/span profile.
//
// This closes the loop the ROADMAP promised: `parc::sim` replays "recorded
// task DAGs", and obs is what records them. A traced ptask dependence graph
// round-trips — extract_task_graph → to_dag → sim::simulate — and the
// critical-path analyzer's T1/T∞ agree with the simulator's P=1 / P=∞
// schedules (asserted in obs_roundtrip_test).
//
// Beyond the flat DAG, the graph is annotated with *pattern structure*
// (ISSUE 9): dependence-connected components classified as serial chains,
// reductions, fork-joins or general DAGs, and independent tasks clustered
// into map groups (taskloop chunks, parallel-for bodies, run_multi
// children). obs::model fits one scaling function per group and composes
// them along this structure; everything is reached through the stable
// accessors below — no struct poking from tests or tools.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/machine.hpp"

namespace parc::obs {

/// One task reconstructed from kTaskSpawn/Start/Finish events.
struct RecordedTask {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< spawning task's id (0 = spawned at root)
  std::uint64_t start_ns = 0;
  std::uint64_t finish_ns = 0;
  bool started = false;
  bool finished = false;

  /// Measured body cost; 0 for tasks that never ran (cancelled) or whose
  /// start/finish fell outside the session window.
  [[nodiscard]] double cost_s() const noexcept {
    return (started && finished && finish_ns > start_ns)
               ? static_cast<double>(finish_ns - start_ns) * 1e-9
               : 0.0;
  }
};

/// Structural pattern vocabulary shared by model fitting and reporting.
enum class PatternKind : std::uint8_t {
  kSingle,       ///< one task with no dependences
  kMap,          ///< ≥2 independent tasks (taskloop / parallel-for / multi)
  kSerialChain,  ///< linear dependence chain (every node ≤1 pred, ≤1 succ)
  kReduce,       ///< in-tree: many sources funnelling into one sink
  kForkJoin,     ///< one source fanning out (and optionally re-joining)
  kDag,          ///< anything else
};
[[nodiscard]] const char* pattern_name(PatternKind kind) noexcept;

/// One pattern group recovered from the recorded graph: either a
/// dependence-connected component, or a batch of edge-free tasks clustered
/// by spawn parent and wall-time overlap (two sequential taskloops become
/// two map groups, not one).
struct PatternGroup {
  PatternKind kind = PatternKind::kSingle;
  std::vector<std::size_t> tasks;  ///< indices into RecordedGraph::tasks()
  double work_s = 0.0;             ///< Σ cost of member tasks
  std::uint64_t first_start_ns = 0;
  std::uint64_t last_finish_ns = 0;
};

/// A run's task graph: tasks in start-time (hence topological) order, the
/// recorded dependence edges between their obs ids, and the pattern
/// annotation — all reached through accessors (the construction invariants
/// live in one place, the constructor).
class RecordedGraph {
 public:
  using Edge = std::pair<std::uint64_t, std::uint64_t>;  ///< pred → succ ids

  RecordedGraph() = default;

  /// Build from recorded tasks and dependence edges (obs ids, deduped by
  /// the caller or not — duplicates are tolerated). Sorts tasks into
  /// start-time order, indexes edges, annotates patterns.
  RecordedGraph(std::vector<RecordedTask> tasks, std::vector<Edge> edges);

  [[nodiscard]] const std::vector<RecordedTask>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

  /// Indexed predecessors of task k. Edges whose endpoints were not both
  /// recorded (e.g. a dependence on a task finished before the session
  /// began) are dropped, as are edges that would violate topological order.
  [[nodiscard]] const std::vector<std::size_t>& preds(std::size_t k) const {
    return preds_[k];
  }

  /// Pattern annotation, ordered by first start time.
  [[nodiscard]] const std::vector<PatternGroup>& patterns() const noexcept {
    return patterns_;
  }
  /// Index into patterns() of the group containing task k.
  [[nodiscard]] std::size_t pattern_of(std::size_t k) const {
    return pattern_of_[k];
  }

  /// Convert to the exact structure sim::machine replays. Task k of the
  /// returned DAG is tasks()[k]; dropped edges match preds().
  [[nodiscard]] sim::TaskDag to_dag() const;

  /// Sub-DAG of one pattern group: member costs plus intra-group edges,
  /// in the same (topological) relative order as the full DAG.
  [[nodiscard]] sim::TaskDag group_dag(std::size_t group) const;

  /// Human/sim-readable dump: one `task <k> cost_s <c> deps <n> <k...>` line
  /// per task, mirroring exactly the add_task() calls to_dag() makes.
  void write(std::ostream& os) const;

 private:
  std::vector<RecordedTask> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> preds_;
  std::vector<PatternGroup> patterns_;
  std::vector<std::size_t> pattern_of_;
};

/// Both recorded ends of one span (see pair_spans).
struct Span {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t begin_tid = 0;  ///< track of the begin event
  std::uint32_t end_tid = 0;    ///< track of the end event
  bool has_begin = false;
  bool has_end = false;
};

/// Pair the events of `begin` (a "B" kind) with those of its "E" kind in
/// the kind table, by event id: id → both ends. Meant for kinds whose id
/// names exactly one span (tasks, serve exec); region, barrier and EDT
/// spans repeat per member thread. An end that was never recorded leaves
/// its has_* flag false; when an id repeats, the last event of each end
/// wins. Whether a span is usable (both ends, end ≥ begin) is the caller's
/// rule.
[[nodiscard]] std::unordered_map<std::uint64_t, Span> pair_spans(
    const TraceDump& dump, EventKind begin);

/// Scan every track of `dump` for task-layer events and rebuild the graph.
[[nodiscard]] RecordedGraph extract_task_graph(const TraceDump& dump);

/// Work/span profile of a recorded run.
struct CriticalPathReport {
  double work_s = 0.0;  ///< T1: total measured task cost
  double span_s = 0.0;  ///< T∞: longest cost-weighted dependence path
  std::size_t tasks = 0;
  std::size_t edges = 0;

  /// Average parallelism T1/T∞ (0 when nothing was recorded).
  [[nodiscard]] double parallelism() const noexcept {
    return span_s > 0.0 ? work_s / span_s : 0.0;
  }
  /// Achievable speedup on P cores: T1 / max(T1/P, T∞) — the work and span
  /// laws, which greedy scheduling approaches within 2x (Graham).
  [[nodiscard]] double speedup_bound(std::size_t cores) const noexcept;
};

/// Longest-path analysis over the recorded graph (independent of sim; the
/// round-trip test cross-checks the two).
[[nodiscard]] CriticalPathReport critical_path(const RecordedGraph& graph);

}  // namespace parc::obs
