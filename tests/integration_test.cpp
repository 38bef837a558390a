// Cross-module integration: the example-application flows as assertions —
// a live search app (ptask + gui + text), a GUI-aware Pyjama computation
// (pj + gui + kernels), a full semester of course administration
// (course, end to end), and a download session (net + ptask).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>

#include "course/course.hpp"
#include "gui/gui.hpp"
#include "kernels/kernels.hpp"
#include "net/downloader.hpp"
#include "pj/pj.hpp"
#include "ptask/ptask.hpp"
#include "text/text.hpp"

namespace parc {
namespace {

TEST(Integration, SearchAppDeliversOracleResultsThroughUi) {
  text::CorpusOptions opts;
  opts.num_files = 128;
  const auto generated = text::make_corpus(opts, 99);

  ptask::Runtime rt(ptask::Runtime::Config{2, {}});
  gui::EventLoop loop;
  gui::ListModel<std::string> results(loop);
  gui::TextModel status(loop);
  rt.set_event_dispatcher(loop.dispatcher());

  const auto matches = text::search_corpus_ptask(
      generated.corpus, opts.needle, rt,
      [&](const std::vector<text::Match>& batch) {
        loop.post([&, batch] {
          for (const auto& m : batch) {
            results.append(generated.corpus.files[m.file_index].path);
          }
          status.set(std::to_string(results.size()) + " hits");
        });
      });
  loop.drain();
  loop.post_and_wait([] {});

  EXPECT_EQ(matches.size(), generated.needles.size());
  EXPECT_EQ(results.snapshot().size(), matches.size());
  EXPECT_NE(status.snapshot().find("hits"), std::string::npos);
  rt.set_event_dispatcher(nullptr);
}

TEST(Integration, GuiAwarePyjamaComputationKeepsEdtFree) {
  gui::EventLoop loop;
  pj::set_event_dispatcher(loop.dispatcher());

  auto grid = kernels::make_heat_grid(64, 64);
  auto reference = kernels::make_heat_grid(64, 64);
  const double ref_residual = kernels::jacobi_seq(reference, 30);

  std::atomic<bool> completed{false};
  std::atomic<bool> completed_on_edt{false};
  double residual = 0.0;
  auto handle = pj::gui_region(
      3,
      [&](pj::Team& team) {
        // The region body executes on every team thread; exactly one may
        // own the whole-grid solve (which forks its own nested teams).
        team.single([&] { residual = kernels::jacobi_pj(grid, 30, 3); });
      },
      [&](std::exception_ptr error) {
        completed_on_edt.store(loop.is_event_thread());
        completed.store(error == nullptr);
      });
  handle.wait();
  loop.post_and_wait([] {});

  EXPECT_TRUE(completed.load());
  EXPECT_TRUE(completed_on_edt.load());
  EXPECT_DOUBLE_EQ(residual, ref_residual);
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    ASSERT_DOUBLE_EQ(grid.cells[i], reference.cells[i]);
  }
  pj::set_event_dispatcher(nullptr);
}

TEST(Integration, FullSemesterAdministrationInvariants) {
  using namespace course;
  // Topics from the yearly review feed the poll; groups feed the grade
  // pipeline; the survey closes the loop.
  auto pool = softeng751_2013_pool();
  const auto selected = pool.review_top(10, 2013);
  ASSERT_EQ(selected.size(), 10u);

  std::vector<std::string> students;
  for (int i = 0; i < 60; ++i) {
    // Appended, not `"s" + std::to_string(i)`: GCC 12 raises a false
    // -Wrestrict on that operator+ in optimized builds.
    std::string id = "s";
    id += std::to_string(i);
    students.push_back(std::move(id));
  }
  auto groups = form_groups(students, 3);
  assign_preferences(groups, selected.size(), 2013);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  const auto allocation = allocate_fifo(groups, selected.size(), 2, arrival);
  EXPECT_TRUE(allocation_respects_capacity(allocation, 2));
  EXPECT_TRUE(allocation_is_fifo_fair(groups, allocation, arrival));

  std::vector<StudentRecord> cohort;
  Rng rng(2013);
  for (const auto& group : groups) {
    const auto log = generate_commit_log(group.id, group.members,
                                         CommitModel{}, 7 + group.id);
    const auto contribution = analyse_contributions(log);
    const double impl = rng.uniform(60, 95);
    for (const auto& member : group.members) {
      StudentRecord s;
      s.id = member;
      s.group = group.id;
      s.raw = {rng.uniform(50, 100), rng.uniform(60, 95), rng.uniform(50, 100),
               impl, rng.uniform(60, 95)};
      s.peer_factor = contribution.balanced ? 1.0 : 0.95;
      cohort.push_back(std::move(s));
    }
  }
  const auto stats = cohort_stats(cohort);
  EXPECT_GT(stats.mean, 50.0);
  EXPECT_LT(stats.mean, 100.0);

  const auto survey = run_survey(softeng751_survey(), cohort.size(), 2013);
  for (const auto& q : survey) {
    EXPECT_GT(q.agree_pct, 80.0);  // a strongly positive evaluation
  }
}

TEST(Integration, DownloadSessionThroughInteractiveTasks) {
  ptask::Runtime rt(ptask::Runtime::Config{2, {}});
  net::NetParams params;
  params.mean_latency_s = 0.05;
  const auto pages = net::make_page_set(24, params, 5);
  net::SimWebServer server(pages, params, 0.002);
  const auto run = net::download_all(server, 8, rt);
  double expected = 0.0;
  for (const auto& p : pages) expected += p.size_bytes;
  EXPECT_EQ(run.pages, 24u);
  EXPECT_NEAR(run.bytes, expected, 1e-6);
  // The model's prediction and the live run agree on the *shape*: both are
  // far below the serial sum of latencies.
  const auto model = net::simulate_fetch(pages, 8, params);
  EXPECT_LT(model.makespan_s,
            0.6 * net::simulate_fetch(pages, 1, params).makespan_s);
}

TEST(Integration, PipelineFeedsProgressChannelToUi) {
  ptask::Runtime rt(ptask::Runtime::Config{2, {}});
  gui::EventLoop loop;
  rt.set_event_dispatcher(loop.dispatcher());
  std::vector<int> ui_rows;  // EDT-confined
  ptask::ProgressChannel<int> progress(
      rt, [&](std::vector<int> batch) {
        for (int v : batch) ui_rows.push_back(v);
      });
  std::vector<int> inputs;
  for (int i = 0; i < 100; ++i) inputs.push_back(i);
  auto done = ptask::pipeline(
      rt, inputs, [](int x) { return x * 2; },
      [&](int x) {
        progress.publish(x);
        return x;
      });
  const auto outputs = done.get();
  loop.drain();
  loop.post_and_wait([] {});
  EXPECT_EQ(outputs.size(), 100u);
  EXPECT_EQ(ui_rows.size(), 100u);
  // Pipeline order survives both the channel and the EDT.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ui_rows[static_cast<std::size_t>(i)], i * 2);
  }
  rt.set_event_dispatcher(nullptr);
}

}  // namespace
}  // namespace parc
