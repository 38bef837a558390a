// Small numeric helpers shared by the workloads: medians, histogram
// percentiles between bucket edges, and the process's peak RSS.
#pragma once

#include <cstdint>
#include <vector>

#include "support/histogram.hpp"

namespace perfbench {

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Percentile p (0..100) of the samples added to `now` since `base` was
/// copied from the same histogram. Inside the bucket that holds the p-th
/// sample the value is interpolated geometrically by rank, so the estimate
/// moves smoothly instead of jumping between bucket midpoints.
[[nodiscard]] double percentile_since(const parc::LogHistogram& now,
                                      const parc::LogHistogram& base,
                                      double p);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Wall-clock nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
