// parc_perfbench: runs one named workload of the PARC benchmark.
//
//   parc_perfbench --workload <serve_hot|serve_cold|pipesort|fork_join>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
// it records spans around its calls into the program and reports the
// per-layer metrics, taking layers the workload does not drive from small
// stand-in runs so that every workload reports every per-layer metric. The
// last line of output is one JSON object; perfbench/run.py turns it into
// the benchmark's result line. Exits 1 when an output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ptask/runtime.hpp"

namespace perfbench {
namespace {

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "parc_perfbench: %s\nusage: parc_perfbench --workload "
               "<serve_hot|serve_cold|pipesort|fork_join> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <csv>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // JSON has no NaN or infinity; null makes run.py reject the value.
    if (std::isfinite(ms[i].value)) {
      std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += (i == 0 ? "" : ", ") + json_string(ms[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Layers the workload does not drive, measured by stand-ins, plus the
/// rungs every traced run reports.
void ladder(const std::string& w, std::uint64_t seed, Report& r) {
  const bool serve = w == "serve_hot" || w == "serve_cold";
  if (!serve) serve_standin(seed, 0.3, r);
  if (w != "pipesort") pipesort_standin(seed, r);
  if (w != "fork_join") {
    parc::ptask::Runtime rt(parc::ptask::Runtime::Config{.workers = 3});
    const PoolCounts before = pool_counts(rt.pool());
    ptask_rung(rt, r);
    if (!serve) {
      // pipesort drives no pool: its sched counters come from this rung.
      pool_metrics(before, pool_counts(rt.pool()), r);
      sched_rung(rt.pool(), r);
    }
  }
  pj_rung(r);
  flow_rung(r);
  baseline_rung(seq_baseline_size(w), seed, r);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report r;
  SpanLog spans(std::size_t{3} << 20);
  if (opt.trace) r.spans = &spans;

  if (opt.workload == "serve_hot" || opt.workload == "serve_cold") {
    run_serve(opt, opt.workload == "serve_hot", r);
  } else if (opt.workload == "pipesort") {
    run_pipesort(opt, r);
  } else if (opt.workload == "fork_join") {
    run_fork_join(opt, r);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  if (opt.trace) {
    ladder(opt.workload, opt.seed, r);
    r.checks.expect(spans.dropped() == 0, "span log overflowed");
    r.checks.expect(spans.inconsistent_roots().empty(),
                    "span self times do not sum to their root span");
    r.note("spans", static_cast<double>(spans.spans().size()), "count");
    if (!opt.trace_out.empty()) {
      std::ofstream os(opt.trace_out);
      spans.write_csv(os);
      r.checks.expect(static_cast<bool>(os), "could not write the span CSV");
    }
  }

  std::sort(r.metrics.begin(), r.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  const double error_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  r.note("error_frac", error_frac, "frac");
  for (const auto& [name, values] : r.samples) {
    std::printf("samples %s", name.c_str());
    for (const double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  for (const std::string& f : r.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"notes\": %s, "
      "\"host\": {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"parc_trace\": %s}}\n",
      r.checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      json_metrics(r.metrics).c_str(), json_metrics(r.notes).c_str(),
      std::thread::hardware_concurrency(),
      json_string(kCompiler).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      PARC_OBS_TRACE ? "true" : "false");
  return r.checks.ok() ? 0 : 1;
}
