// P1: thumbnails of images in a folder — strategy comparison the two
// student groups ran: wall time, thread cost, and GUI responsiveness
// (probe-event latency while rendering), across folder sizes; plus the
// machine-model replay that shows how the pooled strategy scales on the
// PARC machines.
#include "bench_util.hpp"
#include "gui/gui.hpp"
#include "img/thumbnails.hpp"
#include "sim/machine.hpp"
#include "support/stats.hpp"

using namespace parc;

namespace {

struct StrategyOutcome {
  img::ThumbnailRun run;
  double p99_latency_ms = 0.0;
  double dropped_pct = 0.0;
};

StrategyOutcome measure(const img::ImageFolder& folder,
                        img::ThumbnailStrategy strategy,
                        ptask::Runtime& runtime) {
  gui::EventLoop loop;
  gui::ListModel<img::Image> gallery(loop);
  runtime.set_event_dispatcher(loop.dispatcher());
  gui::ResponsivenessProbe probe(loop, std::chrono::microseconds(1000));
  StrategyOutcome out;
  out.run = img::render_gallery(folder, 64, img::Filter::kBilinear, strategy,
                                loop, gallery, runtime);
  probe.stop();
  loop.drain();
  const auto latencies = loop.latency_samples_ms();
  Summary s;
  s.add_all(latencies);
  out.p99_latency_ms = s.empty() ? 0.0 : s.percentile(99);
  out.dropped_pct = 100.0 * gui::dropped_frame_fraction(latencies);
  runtime.set_event_dispatcher(nullptr);
  return out;
}

}  // namespace

static void BM_ResizeOneImage(benchmark::State& state) {
  const auto src = img::generate_image(512, 512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::resize(src, 64, 64, img::Filter::kBilinear));
  }
}
BENCHMARK(BM_ResizeOneImage);

// The render and box-filter kernels behind serve's img backend (a 16 x 16
// source box-filtered to 8 x 8 in the serving benchmark), each its own row.
static void BM_GenerateImage(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::generate_image(side, side, ++seed));
  }
}
BENCHMARK(BM_GenerateImage)->Arg(16)->Arg(512);

static void BM_ResizeBox16to8(benchmark::State& state) {
  const auto src = img::generate_image(16, 16, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::resize(src, 8, 8, img::Filter::kBox));
  }
}
BENCHMARK(BM_ResizeBox16to8);

int main(int argc, char** argv) {
  ptask::Runtime runtime(ptask::Runtime::Config{4, {}});

  Table table("P1 — thumbnail strategies (box 64, bilinear)");
  table.columns({"images", "strategy", "wall ms", "extra threads",
                 "probe p99 ms", "dropped frames %"});
  for (std::size_t images : {16u, 48u, 96u}) {
    const auto folder = img::make_image_folder(images, 256, 1280, 2013);
    for (const auto strategy :
         {img::ThumbnailStrategy::kOnEventThread,
          img::ThumbnailStrategy::kSingleWorker,
          img::ThumbnailStrategy::kThreadPerImage,
          img::ThumbnailStrategy::kPTaskMulti}) {
      const auto out = measure(folder, strategy, runtime);
      table.add_row()
          .cell(static_cast<std::uint64_t>(images))
          .cell(img::to_string(strategy))
          .cell(out.run.wall_ms, 1)
          .cell(static_cast<std::uint64_t>(out.run.peak_threads))
          .cell(out.p99_latency_ms, 2)
          .cell(out.dropped_pct, 1);
    }
  }
  bench::emit(table);

  // Machine-model replay: per-image resize cost proportional to pixels,
  // pooled strategy = fork-join DAG; predicted speedup on the lab machines.
  const auto folder = img::make_image_folder(96, 256, 1280, 2013);
  std::vector<double> costs;
  for (const auto& image : folder.images) {
    costs.push_back(static_cast<double>(image.width()) * image.height() * 1e-8);
  }
  const auto dag = sim::fork_join_dag(costs);
  Table scaling("P1 — pooled strategy replayed on the PARC machines (96 images)");
  scaling.columns({"machine", "cores", "speedup", "efficiency %"});
  for (const auto& machine :
       {sim::parc_8core(), sim::parc_16core(), sim::parc_64core()}) {
    const auto sim_out = sim::simulate(dag, machine);
    scaling.add_row()
        .cell(machine.name)
        .cell(static_cast<std::uint64_t>(machine.cores))
        .cell(sim_out.speedup, 2)
        .cell(100.0 * sim_out.efficiency, 1);
  }
  bench::emit(scaling);

  return bench::run_micro(argc, argv);
}
