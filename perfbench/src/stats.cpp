#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "support/check.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile_since(const parc::LogHistogram& now,
                        const parc::LogHistogram& base, double p) {
  PARC_CHECK(now.same_layout(base));
  PARC_CHECK(p >= 0.0 && p <= 100.0);
  const std::uint64_t total = now.count() - base.count();
  if (total == 0) return 0.0;
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  double seen = 0.0;
  for (std::size_t i = 0; i < now.bucket_count(); ++i) {
    const auto in_bucket = static_cast<double>(now.bucket(i) - base.bucket(i));
    if (in_bucket == 0.0 || seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // The clamped under/overflow buckets have no meaningful width.
    if (i == 0) return now.min_seen();
    if (i + 1 == now.bucket_count()) return now.max_seen();
    const double lo = now.bucket_low(i);
    const double hi = now.bucket_high(i);
    const double frac = (rank - seen - 0.5) / in_bucket;
    return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
  }
  return now.max_seen();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the pre-exec image's
  // high-water mark into ru_maxrss, so a benchmark started from a larger
  // parent (python3 run.py) would report the parent's RSS.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  PARC_CHECK_MSG(false, "no VmHWM in /proc/self/status");
  return 0.0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
