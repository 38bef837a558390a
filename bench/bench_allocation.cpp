// ALLOC: §III-D doodle-poll allocation — the 2013 setting (60 students, 20
// groups, 10 topics x 2), choice-rank distribution over many arrival orders,
// and the fairness/capacity invariants.
#include "bench_util.hpp"
#include "course/allocation.hpp"

using namespace parc;
using namespace parc::course;

namespace {

std::vector<Group> cohort_groups(std::uint64_t seed) {
  std::vector<std::string> students;
  for (int i = 0; i < 60; ++i) {
    // Appended, not `"s" + std::to_string(i)`: GCC 12 raises a false
    // -Wrestrict on that operator+ in optimized builds.
    std::string id = "s";
    id += std::to_string(i);
    students.push_back(std::move(id));
  }
  auto groups = form_groups(students, 3);
  assign_preferences(groups, 10, seed);
  return groups;
}

}  // namespace

static void BM_AllocateFifo(benchmark::State& state) {
  auto groups = cohort_groups(7);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocate_fifo(groups, 10, 2, arrival));
  }
}
BENCHMARK(BM_AllocateFifo);

int main(int argc, char** argv) {
  // One concrete semester.
  auto groups = cohort_groups(2013);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  Rng rng(2013);
  shuffle(arrival.begin(), arrival.end(), rng);
  const auto result = allocate_fifo(groups, 10, 2, arrival);
  const auto topics = softeng751_topics();

  Table alloc("Doodle-poll outcome, 2013 cohort (10 topics x 2 groups)");
  alloc.columns({"topic", "android?", "groups", "their choice rank"});
  for (std::size_t t = 0; t < topics.size(); ++t) {
    std::string gs, ranks;
    for (std::size_t g : result.groups_of_topic[t]) {
      if (!gs.empty()) {
        gs += ",";
        ranks += ",";
      }
      gs += 'G';
      gs += std::to_string(g);
      ranks += std::to_string(result.rank_received[g]);
    }
    alloc.row({topics[t].title, topics[t].android_option ? "yes" : "no", gs,
               ranks});
  }
  bench::emit(alloc);

  // Choice-rank distribution over 200 seeded semesters.
  std::vector<std::size_t> rank_histogram(11, 0);
  bool all_capacity_ok = true;
  bool all_fifo_fair = true;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto g = cohort_groups(seed);
    std::vector<std::size_t> order(g.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng r(seed * 17);
    shuffle(order.begin(), order.end(), r);
    const auto res = allocate_fifo(g, 10, 2, order);
    all_capacity_ok &= allocation_respects_capacity(res, 2);
    all_fifo_fair &= allocation_is_fifo_fair(g, res, order);
    for (std::size_t rank : res.rank_received) ++rank_histogram[rank];
  }
  Table dist("Choice rank received (200 seeded semesters, 20 groups each)");
  dist.columns({"rank", "groups", "share %"});
  const double total = 200.0 * 20.0;
  for (std::size_t rank = 1; rank <= 10; ++rank) {
    if (rank_histogram[rank] == 0) continue;
    dist.add_row()
        .cell(static_cast<std::uint64_t>(rank))
        .cell(static_cast<std::uint64_t>(rank_histogram[rank]))
        .cell(100.0 * static_cast<double>(rank_histogram[rank]) / total, 1);
  }
  bench::emit(dist);

  Table invariants("Invariants over all 200 semesters");
  invariants.columns({"invariant", "holds"});
  invariants.row({"capacity never exceeded", all_capacity_ok ? "yes" : "NO"});
  invariants.row({"FIFO fairness", all_fifo_fair ? "yes" : "NO"});
  bench::emit(invariants);

  return bench::run_micro(argc, argv);
}
