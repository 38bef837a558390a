// Tests of the benchmark's own logic: span self-time arithmetic, the
// histogram percentile it reports, and the output checks (a corrupted sort
// or a broken conservation identity must be caught).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(SpanLog, SelfTimeSubtractsChildren) {
  SpanLog log(16);
  const auto root = log.add("root", 0, 100, -1);
  const auto a = log.add("a", 10, 30, root);
  log.add("a.1", 12, 20, a);
  log.add("b", 40, 90, root);
  const std::vector<std::int64_t> self = log.self_times();
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 50);
  EXPECT_TRUE(log.inconsistent_roots().empty());
}

TEST(SpanLog, OverlappingChildrenCountOnce) {
  SpanLog log(8);
  const auto root = log.add("root", 0, 100, -1);
  log.add("x", 10, 50, root);
  log.add("y", 30, 70, root);   // overlaps x by 20
  log.add("z", 90, 120, root);  // runs past the root; clipped to 10
  EXPECT_EQ(log.self_times()[0], 100 - 60 - 10);
}

TEST(SpanLog, SelfTimesSumToTheRoot) {
  SpanLog log(64);
  const auto r1 = log.add("r1", 0, 1000, -1);
  for (int i = 0; i < 5; ++i) {
    const auto c = log.add("c", 100 * i, 100 * i + 60, r1);
    log.add("g", 100 * i + 10, 100 * i + 20, c);
  }
  log.add("r2", 2000, 2500, -1);
  const auto self = log.self_times();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i + 1 < self.size(); ++i) sum += self[i];
  EXPECT_EQ(sum, 1000);
  EXPECT_TRUE(log.inconsistent_roots().empty());
  const auto summary = log.summarize();
  EXPECT_EQ(summary.at("c").count, 5u);
  EXPECT_EQ(summary.at("c").total_ns, 300);
  EXPECT_EQ(summary.at("c").self_ns, 250);
  EXPECT_EQ(summary.at("g").self_ns, 50);
}

TEST(SpanLog, OverlapIsReportedAsInconsistent) {
  // Two overlapping children: the root's self time absorbs the overlap
  // once, the children count it twice, so the sum exceeds the root.
  SpanLog log(8);
  const auto root = log.add("root", 0, 100, -1);
  log.add("x", 10, 50, root);
  log.add("y", 30, 70, root);
  EXPECT_EQ(log.inconsistent_roots(), std::vector<std::int32_t>{root});
}

TEST(SpanLog, NestedScopesAndCapacity) {
  SpanLog log(2);
  {
    SpanLog::Scope outer(&log, "outer");
    SpanLog::Scope inner(&log, "inner", 7);
    SpanLog::Scope dropped(&log, "dropped");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].id, 7u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  EXPECT_TRUE(log.inconsistent_roots().empty());
}

TEST(Checks, CorruptedSortOutputIsCaught) {
  const std::vector<std::int64_t> oracle = {1, 2, 3, 4, 5};
  Checks ok;
  EXPECT_TRUE(ok.sorted_output(oracle, oracle, "sort"));
  EXPECT_TRUE(ok.ok());

  std::vector<std::int64_t> swapped = oracle;
  std::swap(swapped[1], swapped[3]);
  std::vector<std::int64_t> short_by_one(oracle.begin(), oracle.end() - 1);
  Checks bad;
  EXPECT_FALSE(bad.sorted_output(swapped, oracle, "swapped"));
  EXPECT_FALSE(bad.sorted_output(short_by_one, oracle, "short"));
  EXPECT_EQ(bad.failures().size(), 2u);
}

parc::serve::Server::Stats balanced_stats() {
  parc::serve::Server::Stats s;
  s.offered = 100;
  s.admitted = 90;
  s.shed_rate = 6;
  s.shed_queue = 4;
  s.hits_inline = 50;
  s.coalesced = 10;
  s.executed = 30;
  s.completed = 90;
  s.cache.hits = 50;
  s.cache.misses = 40;
  s.offered_by = {20, 50, 30};
  s.admitted_by = {20, 50, 20};
  s.shed_by = {0, 0, 10};
  return s;
}

TEST(Checks, ConservationHoldsOnBalancedStats) {
  Checks c;
  EXPECT_TRUE(c.conservation(balanced_stats(), "serve"));
  EXPECT_TRUE(c.ok());
}

TEST(Checks, BrokenConservationIdentityIsCaught) {
  using Stats = parc::serve::Server::Stats;
  const std::vector<void (*)(Stats&)> breaks = {
      [](Stats& s) { s.in_flight = 1; },
      [](Stats& s) { s.offered += 1; },
      [](Stats& s) { s.completed -= 1; },
      [](Stats& s) { s.executed -= 1; },
      [](Stats& s) { s.cache.hits += 1; },
      [](Stats& s) { s.cache.misses -= 1; },
      [](Stats& s) { s.offered_by[0] += 1; },
      [](Stats& s) { s.admitted_by[2] -= 1; },
      [](Stats& s) { s.shed_by[1] += 1; },
  };
  for (std::size_t i = 0; i < breaks.size(); ++i) {
    Stats s = balanced_stats();
    breaks[i](s);
    Checks c;
    EXPECT_FALSE(c.conservation(s, "serve")) << "break " << i;
    EXPECT_FALSE(c.ok()) << "break " << i;
  }
}

TEST(Stats, MedianAndPercentileSince) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);

  parc::LogHistogram h(1e-6, 1.0, 32);
  for (int i = 0; i < 1000; ++i) h.add(1e-3);  // before the window
  const parc::LogHistogram base = h;
  for (int i = 1; i <= 1000; ++i) h.add(1e-5 * i);  // 10 µs .. 10 ms
  const double p50 = percentile_since(h, base, 50.0);
  // The window alone has its median near 5 ms; the samples before the
  // window (all at 1 ms) must not pull it down.
  EXPECT_NEAR(p50, 5e-3, 5e-3 * 0.08);
  EXPECT_LT(percentile_since(h, base, 10.0), percentile_since(h, base, 90.0));
  EXPECT_EQ(percentile_since(base, base, 50.0), 0.0);
}

}  // namespace
}  // namespace perfbench
