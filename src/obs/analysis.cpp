#include "obs/analysis.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "support/check.hpp"

namespace parc::obs {

namespace {

/// Dense index of each task id within a start-ordered task vector.
std::unordered_map<std::uint64_t, std::size_t> index_tasks(
    const std::vector<RecordedTask>& tasks) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(tasks.size());
  for (std::size_t k = 0; k < tasks.size(); ++k) index.emplace(tasks[k].id, k);
  return index;
}

/// Union-find over task indices (path halving, union by size).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

/// Shape of a dependence-connected component (≥2 tasks, ≥1 edge).
PatternKind classify_component(const std::vector<std::size_t>& members,
                               const std::vector<std::size_t>& indeg,
                               const std::vector<std::size_t>& outdeg) {
  std::size_t sources = 0, sinks = 0;
  bool all_linear = true;   // every node ≤1 pred and ≤1 succ
  bool in_tree = true;      // every node ≤1 succ
  bool fan_out = true;      // every non-source has exactly 1 pred
  for (const std::size_t k : members) {
    if (indeg[k] == 0) ++sources;
    if (outdeg[k] == 0) ++sinks;
    if (indeg[k] > 1 || outdeg[k] > 1) all_linear = false;
    if (outdeg[k] > 1) in_tree = false;
    if (indeg[k] > 1 && outdeg[k] != 0) fan_out = false;
  }
  if (all_linear) return PatternKind::kSerialChain;
  if (in_tree && sinks == 1 && sources >= 2) return PatternKind::kReduce;
  // One root fanning out, re-joining at most into sinks (diamond included).
  if (sources == 1 && fan_out) return PatternKind::kForkJoin;
  return PatternKind::kDag;
}

}  // namespace

const char* pattern_name(PatternKind kind) noexcept {
  switch (kind) {
    case PatternKind::kSingle:      return "single";
    case PatternKind::kMap:         return "map";
    case PatternKind::kSerialChain: return "serial-chain";
    case PatternKind::kReduce:      return "reduce";
    case PatternKind::kForkJoin:    return "fork-join";
    case PatternKind::kDag:         return "dag";
  }
  return "unknown";
}

RecordedGraph::RecordedGraph(std::vector<RecordedTask> tasks,
                             std::vector<Edge> edges)
    : tasks_(std::move(tasks)), edges_(std::move(edges)) {
  // Start-time order is topological: a successor can only start after its
  // predecessor finished. Never-started tasks sort last (by id, stable).
  std::sort(tasks_.begin(), tasks_.end(),
            [](const RecordedTask& a, const RecordedTask& b) {
              if (a.started != b.started) return a.started;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.id < b.id;
            });

  // Indexed, deduped predecessor lists; edges with unknown endpoints or
  // non-topological direction are skipped (they cannot occur in a trace
  // recorded from a real run, where a successor starts after its
  // predecessor finishes).
  const auto index = index_tasks(tasks_);
  preds_.assign(tasks_.size(), {});
  for (const auto& [from, to] : edges_) {
    const auto f = index.find(from);
    const auto t = index.find(to);
    if (f == index.end() || t == index.end()) continue;
    if (f->second >= t->second) continue;
    auto& list = preds_[t->second];
    if (std::find(list.begin(), list.end(), f->second) == list.end()) {
      list.push_back(f->second);
    }
  }

  // --- Pattern annotation -------------------------------------------------
  const std::size_t n = tasks_.size();
  std::vector<std::size_t> indeg(n, 0), outdeg(n, 0);
  UnionFind uf(n);
  for (std::size_t k = 0; k < n; ++k) {
    indeg[k] = preds_[k].size();
    for (const std::size_t p : preds_[k]) {
      ++outdeg[p];
      uf.merge(p, k);
    }
  }

  // Dependence-connected components of ≥2 tasks become one group each.
  std::unordered_map<std::size_t, std::vector<std::size_t>> components;
  std::vector<std::size_t> loose;  // edge-free tasks
  for (std::size_t k = 0; k < n; ++k) {
    if (indeg[k] == 0 && outdeg[k] == 0) {
      loose.push_back(k);
    } else {
      components[uf.find(k)].push_back(k);
    }
  }

  auto make_group = [&](PatternKind kind, std::vector<std::size_t> members) {
    PatternGroup g;
    g.kind = kind;
    g.work_s = 0.0;
    g.first_start_ns = std::numeric_limits<std::uint64_t>::max();
    g.last_finish_ns = 0;
    for (const std::size_t k : members) {
      const RecordedTask& t = tasks_[k];
      g.work_s += t.cost_s();
      if (t.started) g.first_start_ns = std::min(g.first_start_ns, t.start_ns);
      if (t.finished) g.last_finish_ns = std::max(g.last_finish_ns, t.finish_ns);
    }
    if (g.first_start_ns == std::numeric_limits<std::uint64_t>::max()) {
      g.first_start_ns = 0;  // group of never-started tasks
    }
    g.tasks = std::move(members);
    patterns_.push_back(std::move(g));
  };

  for (auto& [root, members] : components) {
    std::sort(members.begin(), members.end());
    const PatternKind kind = classify_component(members, indeg, outdeg);
    make_group(kind, std::move(members));
  }

  // Edge-free tasks cluster into map groups: first by spawn parent (a
  // run_multi's children share one), then — within the parent-0 pool — by
  // wall-time overlap, so two taskloops separated in time stay two phases.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_parent;
  for (const std::size_t k : loose) by_parent[tasks_[k].parent].push_back(k);
  for (auto& [parent, members] : by_parent) {
    if (parent != 0) {
      // One spawn call's children are one map, full stop — on a 1-core
      // host they execute back to back, so wall-time overlap would shatter
      // the group into singles and hide the pattern.
      const PatternKind kind =
          members.size() >= 2 ? PatternKind::kMap : PatternKind::kSingle;
      make_group(kind, std::move(members));
      continue;
    }
    // Members arrive in start order (indices are start-ordered). Close the
    // running cluster when the next task starts after everything seen so
    // far has finished.
    std::vector<std::size_t> cluster;
    std::uint64_t cluster_max_finish = 0;
    auto flush = [&] {
      if (cluster.empty()) return;
      const PatternKind kind =
          cluster.size() >= 2 ? PatternKind::kMap : PatternKind::kSingle;
      make_group(kind, std::move(cluster));
      cluster = {};
      cluster_max_finish = 0;
    };
    for (const std::size_t k : members) {
      const RecordedTask& t = tasks_[k];
      if (!cluster.empty() && t.started && t.start_ns > cluster_max_finish) {
        flush();
      }
      cluster.push_back(k);
      cluster_max_finish = std::max(cluster_max_finish, t.finish_ns);
    }
    flush();
  }

  std::sort(patterns_.begin(), patterns_.end(),
            [](const PatternGroup& a, const PatternGroup& b) {
              if (a.first_start_ns != b.first_start_ns) {
                return a.first_start_ns < b.first_start_ns;
              }
              return a.tasks < b.tasks;
            });
  pattern_of_.assign(n, 0);
  for (std::size_t g = 0; g < patterns_.size(); ++g) {
    for (const std::size_t k : patterns_[g].tasks) pattern_of_[k] = g;
  }
}

std::unordered_map<std::uint64_t, Span> pair_spans(const TraceDump& dump,
                                                   EventKind begin) {
  const EventKindInfo open = event_kind_info(begin);
  PARC_CHECK_MSG(open.ph == "B", "pair_spans needs a span-begin kind");
  // trace.cpp asserts that exactly one "E" row closes each "B" row.
  EventKind end = begin;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const EventKindInfo& row = kEventKindTable[k];
    if (row.ph == "E" && row.name == open.name && row.cat == open.cat) {
      end = static_cast<EventKind>(k);
    }
  }
  std::unordered_map<std::uint64_t, Span> spans;
  for (const auto& track : dump.tracks) {
    for (const Event& e : track.events) {
      if (e.kind == begin) {
        Span& s = spans[e.id];
        s.begin_ns = e.t_ns;
        s.begin_tid = track.tid;
        s.has_begin = true;
      } else if (e.kind == end) {
        Span& s = spans[e.id];
        s.end_ns = e.t_ns;
        s.end_tid = track.tid;
        s.has_end = true;
      }
    }
  }
  return spans;
}

RecordedGraph extract_task_graph(const TraceDump& dump) {
  std::unordered_map<std::uint64_t, RecordedTask> tasks;
  std::unordered_set<std::uint64_t> edge_seen;
  std::vector<RecordedGraph::Edge> edges;
  for (const auto& track : dump.tracks) {
    for (const Event& e : track.events) {
      if (e.kind == EventKind::kTaskSpawn) {
        RecordedTask& t = tasks[e.id];
        t.id = e.id;
        t.parent = e.arg;
      } else if (e.kind == EventKind::kDepEdge) {
        // Dedupe (a diamond's join edge is recorded once per spawn call,
        // but re-traced sessions could replay): key on the id pair.
        const std::uint64_t key = e.id * 0x9e3779b97f4a7c15ull ^ e.arg;
        if (edge_seen.insert(key).second) {
          edges.emplace_back(e.id, e.arg);
        }
      }
    }
  }
  for (const auto& [id, span] : pair_spans(dump, EventKind::kTaskStart)) {
    RecordedTask& t = tasks[id];
    t.id = id;
    t.start_ns = span.begin_ns;
    t.finish_ns = span.end_ns;
    t.started = span.has_begin;
    t.finished = span.has_end;
  }
  std::vector<RecordedTask> flat;
  flat.reserve(tasks.size());
  for (auto& [id, task] : tasks) flat.push_back(task);
  return RecordedGraph(std::move(flat), std::move(edges));
}

sim::TaskDag RecordedGraph::to_dag() const {
  sim::TaskDag dag;
  std::vector<sim::TaskDag::NodeId> deps;
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    deps.assign(preds_[k].begin(), preds_[k].end());
    dag.add_task(tasks_[k].cost_s(), deps);
  }
  return dag;
}

sim::TaskDag RecordedGraph::group_dag(std::size_t group) const {
  const PatternGroup& g = patterns_.at(group);
  // Member indices are sorted, so relative order stays topological.
  std::unordered_map<std::size_t, sim::TaskDag::NodeId> local;
  local.reserve(g.tasks.size());
  sim::TaskDag dag;
  std::vector<sim::TaskDag::NodeId> deps;
  for (const std::size_t k : g.tasks) {
    deps.clear();
    for (const std::size_t p : preds_[k]) {
      const auto it = local.find(p);
      if (it != local.end()) deps.push_back(it->second);
    }
    local.emplace(k, dag.add_task(tasks_[k].cost_s(), deps));
  }
  return dag;
}

void RecordedGraph::write(std::ostream& os) const {
  os << "# parc::obs task DAG: " << tasks_.size() << " tasks, "
     << edges_.size() << " edges\n";
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    os << "task " << k << " cost_s " << tasks_[k].cost_s() << " deps "
       << preds_[k].size();
    for (const std::size_t p : preds_[k]) os << ' ' << p;
    os << '\n';
  }
}

CriticalPathReport critical_path(const RecordedGraph& graph) {
  CriticalPathReport report;
  report.tasks = graph.task_count();
  report.edges = graph.edge_count();
  // Longest cost-weighted path, processed in the (topological) task order.
  std::vector<double> finish(graph.task_count(), 0.0);
  for (std::size_t k = 0; k < graph.task_count(); ++k) {
    double ready = 0.0;
    for (const std::size_t p : graph.preds(k)) {
      ready = std::max(ready, finish[p]);
    }
    const double cost = graph.tasks()[k].cost_s();
    finish[k] = ready + cost;
    report.work_s += cost;
    report.span_s = std::max(report.span_s, finish[k]);
  }
  return report;
}

double CriticalPathReport::speedup_bound(std::size_t cores) const noexcept {
  if (cores == 0 || work_s <= 0.0) return 0.0;
  const double bound =
      std::max(work_s / static_cast<double>(cores), span_s);
  return bound > 0.0 ? work_s / bound : 0.0;
}

}  // namespace parc::obs
