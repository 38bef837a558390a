// pipesort and fork_join: the two sorting workloads.
//
// pipesort streams 1M seeded ints from this thread through flow::Pipeline:
// a run-builder stage and an 8-stage pair-merge cascade. Nearly all of its
// time is the per-element channel hop, so a flow::Channel change shows here.
//
// fork_join sorts 8M seeded int64 with kernels::quicksort_ptask (cutoff
// 2048, 3 workers plus this thread joining) and then kernels::quicksort_pj
// on the same input: thousands of fine tasks through spawn, deque, steal,
// help_while joins and pj teams.
//
// Every sort's output is compared with the std::sort oracle of its input.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "flow/flow.hpp"
#include "kernels/sort.hpp"
#include "ptask/runtime.hpp"
#include "stats.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using parc::Stopwatch;
using namespace parc::flow;

constexpr std::size_t kPipesortN = 1'000'000;
constexpr std::size_t kPipesortRun = 4096;  // 245 runs: 8 merges collapse them
constexpr std::size_t kPushChunk = 4096;    // elements per flow.push span
constexpr std::size_t kForkJoinN = 8'000'000;
constexpr std::size_t kCutoff = 2048;
constexpr std::size_t kPjDepth = 4;
constexpr std::size_t kWorkers = 3;

/// Accumulate `run` elements, sort, emit them as one run; flush() the rest.
struct RunBuilder {
  std::size_t run;
  std::vector<int> acc;

  std::optional<std::vector<int>> operator()(int x) {
    if (acc.capacity() < run) acc.reserve(run);
    acc.push_back(x);
    if (acc.size() < run) return std::nullopt;
    return flush();
  }
  std::optional<std::vector<int>> flush() {
    if (acc.empty()) return std::nullopt;
    std::sort(acc.begin(), acc.end());
    std::vector<int> out;
    out.swap(acc);
    return out;
  }
};

/// Hold one sorted run and merge it with the next; flush() passes an odd
/// run through, so each stage halves the run count.
struct PairMerge {
  std::optional<std::vector<int>> held;

  std::optional<std::vector<int>> operator()(std::vector<int> next) {
    if (!held) {
      held = std::move(next);
      return std::nullopt;
    }
    std::vector<int> out;
    out.reserve(held->size() + next.size());
    std::merge(held->begin(), held->end(), next.begin(), next.end(),
               std::back_inserter(out));
    held.reset();
    return out;
  }
  std::optional<std::vector<int>> flush() {
    std::optional<std::vector<int>> out;
    out.swap(held);
    return out;
  }
};

StageOptions named(const char* n) {
  StageOptions o;
  o.name = n;
  return o;
}

auto make_pipesort(std::size_t run_len) {
  PipelineOptions po;
  po.capacity = 1024;
  po.single_producer = true;
  return pipeline<int>(po)
      .then(stage(RunBuilder{run_len, {}}, named("runs")))
      .then(stage(PairMerge{}, named("merge0")))
      .then(stage(PairMerge{}, named("merge1")))
      .then(stage(PairMerge{}, named("merge2")))
      .then(stage(PairMerge{}, named("merge3")))
      .then(stage(PairMerge{}, named("merge4")))
      .then(stage(PairMerge{}, named("merge5")))
      .then(stage(PairMerge{}, named("merge6")))
      .then(stage(PairMerge{}, named("merge7")))
      .collect();
}

std::vector<int> pipesort_input(std::size_t n, std::uint64_t seed) {
  parc::Rng rng(seed);
  std::vector<int> data(n);
  for (int& x : data) x = static_cast<int>(rng.bits() & 0x7fffffff);
  return data;
}

struct PipesortRep {
  double sort_s = 0.0;   ///< first push to verified output
  double drain_s = 0.0;  ///< last push to verified output
  std::int64_t wall_ns = 0;
  ChannelStats source;
  PipelineStats stages;
  bool ok = false;
};

using Pipesort = decltype(make_pipesort(0));

/// One sort through `p`, a freshly built pipeline.
PipesortRep pipesort_once(Pipesort& p, const std::vector<int>& data,
                          const std::vector<int>& oracle, Report& r) {
  PipesortRep out;
  SpanLog::Scope rep(r.spans, "pipesort.rep");
  const std::int64_t t0 = now_ns();
  bool pushed_all = true;
  for (std::size_t i = 0; i < data.size(); i += kPushChunk) {
    SpanLog::Scope sp(r.spans, "flow.push", i);
    const std::size_t end = std::min(data.size(), i + kPushChunk);
    for (std::size_t j = i; j < end; ++j) pushed_all &= p.push(data[j]);
  }
  const std::int64_t t_last = now_ns();
  std::vector<std::vector<int>> runs;
  {
    SpanLog::Scope sp(r.spans, "flow.wait");
    runs = p.wait();
  }
  {
    SpanLog::Scope sp(r.spans, "bench.verify");
    out.source = p.source_stats();
    r.checks.expect(pushed_all, "pipesort: a push was refused");
    r.checks.expect(out.source.pushed == data.size() &&
                        out.source.popped == data.size() &&
                        out.source.dropped == 0 && p.swept_dropped() == 0,
                    "pipesort: source channel conservation");
    r.checks.expect(runs.size() == 1, "pipesort: cascade left several runs");
    out.ok = r.checks.sorted_output(runs.empty() ? std::vector<int>{}
                                                 : runs.front(),
                                    oracle, "pipesort");
  }
  const std::int64_t t_end = now_ns();
  out.sort_s = static_cast<double>(t_end - t0) / 1e9;
  out.drain_s = static_cast<double>(t_end - t_last) / 1e9;
  out.wall_ns = t_end - t0;
  out.stages = p.stats();
  ++r.attempted;
  r.failed += out.ok ? 0 : 1;
  return out;
}

/// flow.* per-layer metrics of one pipesort: the time each channel's
/// consumer (and the pushing source) spent blocked, as shares of the sort's
/// wall time, and futex parks per 1000 elements.
void flow_metrics(const PipesortRep& rep, std::size_t n, Report& r) {
  const auto wall = static_cast<double>(rep.wall_ns);
  r.metric("flow.source_blocked_frac",
           static_cast<double>(rep.source.producer_blocked_ns) / wall, "frac");
  std::uint64_t parks = 0;
  for (const StageStats& s : rep.stages.stages) {
    r.metric("flow.stage_blocked_frac." + s.name,
             static_cast<double>(s.input.consumer_blocked_ns) / wall, "frac");
    parks += s.input.producer_parks + s.input.consumer_parks;
  }
  r.metric("flow.parks_per_1k",
           static_cast<double>(parks) * 1000.0 / static_cast<double>(n),
           "count");
}

}  // namespace

void run_pipesort(const Options& opt, Report& r) {
  std::vector<int> data = pipesort_input(kPipesortN, opt.seed);
  std::vector<int> oracle = data;
  std::sort(oracle.begin(), oracle.end());

  if (!opt.trace) {
    std::vector<double> setup_s;
    std::vector<double> sort_s;
    std::vector<double> drain_s;
    Stopwatch budget;
    while (sort_s.size() < 3 || budget.elapsed_s() < opt.seconds * 0.9) {
      // Set-up (input and pipeline) is timed before every sort, so its
      // samples span the run like the sorts' do.
      Stopwatch sw;
      data = pipesort_input(kPipesortN, opt.seed);
      auto p = make_pipesort(kPipesortRun);
      setup_s.push_back(sw.elapsed_s());
      const PipesortRep rep = pipesort_once(p, data, oracle, r);
      sort_s.push_back(rep.sort_s);
      drain_s.push_back(rep.drain_s);
    }
    const double sort_med = median(sort_s);
    r.samples.emplace_back("sort_s", sort_s);
    r.samples.emplace_back("setup_s", setup_s);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("throughput_per_s", static_cast<double>(kPipesortN) / sort_med,
             "1/s");
    r.note("sort_s", sort_med, "s");
    r.note("drain_s", median(drain_s), "s");
    r.note("reps", static_cast<double>(sort_s.size()), "count");
    return;
  }

  // Traced run: untraced and traced sorts alternate; the last traced one
  // supplies the flow metrics.
  std::vector<double> untraced;
  std::vector<double> traced;
  PipesortRep last;
  SpanLog* spans = r.spans;
  for (int i = 0; i < 2; ++i) {
    auto p_untraced = make_pipesort(kPipesortRun);
    r.spans = nullptr;
    untraced.push_back(pipesort_once(p_untraced, data, oracle, r).sort_s);
    auto p_traced = make_pipesort(kPipesortRun);
    r.spans = spans;
    last = pipesort_once(p_traced, data, oracle, r);
    traced.push_back(last.sort_s);
  }
  flow_metrics(last, kPipesortN, r);
  r.metric("bench.trace_overhead_frac", median(traced) / median(untraced) - 1,
           "frac");
}

void pipesort_standin(std::uint64_t seed, Report& r) {
  // 2^17 elements in runs of 512: 256 runs, so all 8 merge stages work.
  constexpr std::size_t kN = std::size_t{1} << 17;
  const std::vector<int> data = pipesort_input(kN, seed);
  std::vector<int> oracle = data;
  std::sort(oracle.begin(), oracle.end());
  auto p = make_pipesort(512);
  flow_metrics(pipesort_once(p, data, oracle, r), kN, r);
}

void run_fork_join(const Options& opt, Report& r) {
  std::vector<std::int64_t> input;
  std::vector<double> setup_s;
  // Construct a runtime and generate the input. Repeated before every pair
  // of sorts (with a spare runtime), so the set-up samples span the run.
  const auto set_up = [&](std::unique_ptr<parc::ptask::Runtime>& runtime) {
    std::vector<std::int64_t>().swap(input);  // one input alive at a time
    Stopwatch sw;
    runtime = std::make_unique<parc::ptask::Runtime>(
        parc::ptask::Runtime::Config{.workers = kWorkers});
    input = parc::kernels::make_sort_input(
        kForkJoinN, parc::kernels::InputKind::kUniform, opt.seed);
    setup_s.push_back(sw.elapsed_s());
  };
  std::unique_ptr<parc::ptask::Runtime> rt;
  set_up(rt);
  std::vector<std::int64_t> oracle = input;
  std::sort(oracle.begin(), oracle.end());
  const PoolCounts pool_before = pool_counts(rt->pool());

  // Each pair of sorts gets the input rotated by a fresh seeded offset: the
  // same multiset (so the same oracle) in another order, so the median of a
  // run spans many top-level pivot choices instead of one input's.
  parc::Rng rotations(opt.seed ^ 0x70747a6eull);
  std::size_t offset = 0;
  std::vector<std::int64_t> buf(input.size());
  const auto sort_once = [&](const char* name, auto&& sort_fn) {
    SpanLog::Scope rep(r.spans, "fork_join.rep");
    {
      SpanLog::Scope sp(r.spans, "bench.copy");
      std::rotate_copy(input.begin(),
                       input.begin() + static_cast<std::ptrdiff_t>(offset),
                       input.end(), buf.begin());
    }
    const std::int64_t t0 = now_ns();
    {
      SpanLog::Scope sp(r.spans, name);
      sort_fn(buf);
    }
    bool ok = false;
    {
      SpanLog::Scope sp(r.spans, "bench.verify");
      ok = r.checks.sorted_output(buf, oracle, name);
    }
    ++r.attempted;
    r.failed += ok ? 0 : 1;
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  const auto ptask_sort = [&](std::vector<std::int64_t>& v) {
    parc::kernels::quicksort_ptask(v, *rt, kCutoff);
  };
  const auto pj_sort = [&](std::vector<std::int64_t>& v) {
    parc::kernels::quicksort_pj(v, kPjDepth, kCutoff);
  };

  if (!opt.trace) {
    std::vector<double> ptask_s;
    std::vector<double> pj_s;
    std::vector<double> pair_s;
    Stopwatch budget;
    while (ptask_s.size() < 3 || budget.elapsed_s() < opt.seconds * 0.9) {
      {
        std::unique_ptr<parc::ptask::Runtime> spare;
        set_up(spare);
      }
      offset = rotations.below(input.size());
      ptask_s.push_back(sort_once("kernels.quicksort_ptask", ptask_sort));
      pj_s.push_back(sort_once("kernels.quicksort_pj", pj_sort));
      pair_s.push_back(ptask_s.back() + pj_s.back());
    }
    const double ptask_med = median(ptask_s);
    r.samples.emplace_back("sort_s", ptask_s);
    r.samples.emplace_back("sort_pj_s", pj_s);
    const double pj_med = median(pj_s);
    r.samples.emplace_back("setup_s", setup_s);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // Both runtimes count: elements sorted per second of one ptask + pj pair.
    r.metric("throughput_per_s",
             2.0 * static_cast<double>(kForkJoinN) / median(pair_s), "1/s");
    r.note("sort_s", ptask_med, "s");
    r.note("sort_pj_s", pj_med, "s");
    r.note("reps", static_cast<double>(ptask_s.size()), "count");
    return;
  }

  std::vector<double> untraced;
  std::vector<double> traced;
  SpanLog* spans = r.spans;
  for (int i = 0; i < 2; ++i) {
    offset = rotations.below(input.size());
    r.spans = nullptr;
    untraced.push_back(sort_once("kernels.quicksort_ptask", ptask_sort));
    r.spans = spans;
    traced.push_back(sort_once("kernels.quicksort_ptask", ptask_sort));
    (void)sort_once("kernels.quicksort_pj", pj_sort);
  }
  pool_metrics(pool_before, pool_counts(rt->pool()), r);
  r.metric("bench.trace_overhead_frac", median(traced) / median(untraced) - 1,
           "frac");
  sched_rung(rt->pool(), r);
  ptask_rung(*rt, r);
}

void baseline_rung(std::size_t n, std::uint64_t seed, Report& r) {
  {
    SpanLog::Scope sp(r.spans, "kernels.quicksort_seq");
    std::vector<std::int64_t> v = parc::kernels::make_sort_input(
        n, parc::kernels::InputKind::kUniform, seed);
    const std::int64_t t0 = now_ns();
    parc::kernels::quicksort_seq(v);
    r.metric("kernels.seq_sort_s", static_cast<double>(now_ns() - t0) / 1e9,
             "s");
    r.checks.expect(std::is_sorted(v.begin(), v.end()),
                    "quicksort_seq output is not sorted");
  }
  {
    SpanLog::Scope sp(r.spans, "pipesort.std_sort");
    std::vector<int> v = pipesort_input(kPipesortN, seed);
    const std::int64_t t0 = now_ns();
    std::sort(v.begin(), v.end());
    r.metric("pipesort.std_sort_s", static_cast<double>(now_ns() - t0) / 1e9,
             "s");
  }
}

std::size_t seq_baseline_size(const std::string& workload) {
  return workload == "fork_join" ? kForkJoinN : kPipesortN;
}

}  // namespace perfbench
