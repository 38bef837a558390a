#include "serve/replay.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/analysis.hpp"

namespace parc::serve {

ReplayDag build_serve_dag(const obs::TraceDump& dump) {
  // Pass 1: gather arrivals (id, t) and routing events; exec spans come
  // from pair_spans (id → begin/end).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> arrivals;  // (t, id)
  std::unordered_map<std::uint64_t, std::size_t> picks;  // request → replica
  std::unordered_map<std::uint64_t, std::size_t> fails;  // request → replica
  for (const auto& track : dump.tracks) {
    for (const obs::Event& e : track.events) {
      switch (e.kind) {
        case obs::EventKind::kServeArrive:
          arrivals.emplace_back(e.t_ns, e.id);
          break;
        case obs::EventKind::kReplicaPick:
          picks[e.id] = static_cast<std::size_t>(e.arg);
          break;
        case obs::EventKind::kReplicaFail:
          fails[e.id] = static_cast<std::size_t>(e.arg);
          break;
        default:
          break;
      }
    }
  }
  const auto spans = obs::pair_spans(dump, obs::EventKind::kServeExecBegin);
  std::sort(arrivals.begin(), arrivals.end());

  ReplayDag out;
  out.arrivals = arrivals.size();
  const std::uint64_t first_t = arrivals.empty() ? 0 : arrivals.front().first;
  std::uint64_t prev_t = 0;
  sim::TaskDag::NodeId prev_chain = 0;
  bool have_prev = false;
  for (const auto& [t_ns, id] : arrivals) {
    const double gap_s = static_cast<double>(t_ns - prev_t) * 1e-9;
    prev_t = t_ns;
    const sim::TaskDag::NodeId chain =
        have_prev ? out.dag.add_task(gap_s, {prev_chain})
                  : out.dag.add_task(gap_s);
    out.ingress_span_s += gap_s;
    prev_chain = chain;
    have_prev = true;
    const auto it = spans.find(id);
    if (it != spans.end() && it->second.has_begin && it->second.has_end &&
        it->second.end_ns >= it->second.begin_ns) {
      const double cost_s =
          static_cast<double>(it->second.end_ns - it->second.begin_ns) * 1e-9;
      const sim::TaskDag::NodeId exec = out.dag.add_task(cost_s, {chain});
      ReplayDag::RequestRef ref{chain, exec,
                                static_cast<double>(t_ns - first_t) * 1e-9};
      if (const auto pick = picks.find(id); pick != picks.end()) {
        ref.replica = pick->second;
      }
      ref.failed = fails.contains(id);
      if (ref.replica != ReplayDag::kNoReplica) {
        if (ref.replica >= out.replicas.size()) {
          out.replicas.resize(ref.replica + 1);
        }
        out.replicas[ref.replica].exec_work_s += cost_s;
      }
      out.requests.push_back(ref);
      ++out.executed;
      out.exec_work_s += cost_s;
    }
  }
  // Attribute every routing event — including requests whose exec span was
  // dropped — so per-replica routed/failed totals match the router's own
  // counters even on lossy traces.
  for (const auto& [id, replica] : picks) {
    if (replica >= out.replicas.size()) out.replicas.resize(replica + 1);
    ++out.replicas[replica].routed;
  }
  for (const auto& [id, replica] : fails) {
    if (replica >= out.replicas.size()) out.replicas.resize(replica + 1);
    ++out.replicas[replica].failed;
  }
  return out;
}

std::vector<double> replay_latencies(const ReplayDag& replay,
                                     const sim::MachineParams& machine) {
  std::vector<double> latencies;
  if (replay.requests.empty()) return latencies;
  sim::MachineParams params = machine;
  params.record_task_finish = true;
  const sim::SimOutcome out = sim::simulate(replay.dag, params);
  latencies.reserve(replay.requests.size());
  for (const ReplayDag::RequestRef& r : replay.requests) {
    // The ingress chain replays the offered-load clock, so a request's
    // simulated arrival is its trace offset; anything the machine adds on
    // top of that offset is queueing + service latency.
    latencies.push_back(
        std::max(0.0, out.task_finish_s[r.exec] - r.arrival_s));
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

}  // namespace parc::serve
