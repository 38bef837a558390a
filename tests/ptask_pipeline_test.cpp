// Pipelines and progress channels: ordering, type transforms, overlap,
// end-of-stream propagation, EDT batch delivery.
#include "ptask/ptask.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "gui/event_loop.hpp"

namespace parc::ptask {
namespace {

using namespace std::chrono_literals;

Runtime& test_runtime() {
  static Runtime rt(Runtime::Config{4, {}});
  return rt;
}

TEST(Pipeline, SingleStageMapsAllElements) {
  std::vector<int> inputs{1, 2, 3, 4, 5};
  auto t = pipeline(test_runtime(), inputs, [](int x) { return x * 10; });
  EXPECT_EQ(t.get(), (std::vector<int>{10, 20, 30, 40, 50}));
}

TEST(Pipeline, MultiStageChainsTypes) {
  std::vector<int> inputs{1, 2, 3};
  auto t = pipeline(
      test_runtime(), inputs, [](int x) { return x + 1; },
      [](int x) { return std::to_string(x * 2); },
      [](std::string s) { return s + "!"; });
  EXPECT_EQ(t.get(), (std::vector<std::string>{"4!", "6!", "8!"}));
}

TEST(Pipeline, PreservesOrderForManyElements) {
  std::vector<int> inputs;
  for (int i = 0; i < 2000; ++i) inputs.push_back(i);
  auto t = pipeline(
      test_runtime(), inputs, [](int x) { return x * 3; },
      [](int x) { return x + 1; });
  const auto& out = t.get();
  ASSERT_EQ(out.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * 3 + 1);
  }
}

TEST(Pipeline, EmptyInputYieldsEmptyOutput) {
  auto t = pipeline(test_runtime(), std::vector<int>{},
                    [](int x) { return x; });
  EXPECT_TRUE(t.get().empty());
}

TEST(Pipeline, StagesOverlapInTime) {
  // Record which elements stage 2 has seen before stage 1 finished all of
  // them: with true pipelining, stage 2 starts before stage 1 drains.
  std::atomic<int> stage1_done{0};
  std::atomic<int> stage2_started_early{0};
  std::vector<int> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back(i);
  auto t = pipeline(
      test_runtime(), inputs,
      [&](int x) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        stage1_done.fetch_add(1);
        return x;
      },
      [&](int x) {
        if (stage1_done.load() < 64) stage2_started_early.fetch_add(1);
        return x;
      });
  t.get();
  EXPECT_GT(stage2_started_early.load(), 0);
}

TEST(Pipeline, DeepPipelineOnSmallPool) {
  // 6 stages on a 2-worker runtime: helping waits keep it from deadlocking.
  Runtime rt(Runtime::Config{2, {}});
  std::vector<int> inputs{1, 2, 3, 4};
  auto t = pipeline(
      rt, inputs, [](int x) { return x + 1; }, [](int x) { return x + 1; },
      [](int x) { return x + 1; }, [](int x) { return x + 1; },
      [](int x) { return x + 1; }, [](int x) { return x + 1; });
  EXPECT_EQ(t.get(), (std::vector<int>{7, 8, 9, 10}));
}

TEST(Pipeline, MoveOnlyFriendlyPayloads) {
  std::vector<std::string> inputs{"a", "bb", "ccc"};
  auto t = pipeline(test_runtime(), inputs,
                    [](std::string s) { return s.size(); });
  EXPECT_EQ(t.get(), (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Pipeline, OptionalResultsStayMapped) {
  // A stage returning std::optional is a map like any other: empty results
  // are delivered, not filtered out.
  std::vector<int> inputs{1, 2, 3, 4};
  auto t = pipeline(test_runtime(), inputs, [](int x) {
    return x % 2 == 0 ? std::optional<int>(x) : std::nullopt;
  });
  EXPECT_EQ(t.get(), (std::vector<std::optional<int>>{std::nullopt, 2,
                                                      std::nullopt, 4}));
}

TEST(Pipeline, StageErrorRethrowsFromGet) {
  // The first stage throws on element 0. 10k inputs overflow every
  // 256-slot edge, so unless the error ends the whole chain, the feeder
  // blocks forever on a full edge and get() never returns: the watchdog
  // turns that hang into a failure.
  std::vector<int> inputs(10000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto t = pipeline(
      test_runtime(), inputs,
      [](int x) {
        if (x == 0) throw std::runtime_error("stage failed");
        return x;
      },
      [](int x) { return x + 1; });
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!t.ready()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "watchdog: pipeline still running after 30 s\n");
      std::abort();
    }
    std::this_thread::sleep_for(1ms);
  }
  try {
    (void)t.get();
    ADD_FAILURE() << "get() must rethrow the stage's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stage failed");
  }
}

TEST(ProgressChannel, DeliversEverythingInBatches) {
  gui::EventLoop loop;
  Runtime rt(Runtime::Config{2, {}});
  rt.set_event_dispatcher(loop.dispatcher());
  std::vector<int> received;  // EDT-confined
  std::atomic<int> batches{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    batches.fetch_add(1);
    for (int v : batch) received.push_back(v);
  });
  auto task = run(rt, [&] {
    for (int i = 0; i < 500; ++i) channel.publish(i);
  });
  task.get();
  loop.drain();
  loop.post_and_wait([] {});
  ASSERT_EQ(received.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i);  // order preserved
  }
  // Coalescing: far fewer batches than items.
  EXPECT_LT(batches.load(), 500);
  EXPECT_GE(batches.load(), 1);
  rt.set_event_dispatcher(nullptr);
}

TEST(ProgressChannel, WorksWithoutDispatcher) {
  Runtime rt(Runtime::Config{2, {}});
  std::atomic<int> total{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    for (int v : batch) total.fetch_add(v);
  });
  channel.publish(1);
  channel.publish(2);
  channel.publish(3);
  EXPECT_EQ(total.load(), 6);  // inline delivery, immediate
}

TEST(ProgressChannel, ConcurrentPublishersLoseNothing) {
  gui::EventLoop loop;
  Runtime rt(Runtime::Config{4, {}});
  rt.set_event_dispatcher(loop.dispatcher());
  std::atomic<long> sum{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    for (int v : batch) sum.fetch_add(v);
  });
  auto t = run_multi(rt, 8, [&](std::size_t) {
    for (int i = 1; i <= 250; ++i) channel.publish(i);
  });
  t.get();
  loop.drain();
  loop.post_and_wait([] {});
  EXPECT_EQ(sum.load(), 8L * 250 * 251 / 2);
  rt.set_event_dispatcher(nullptr);
}

}  // namespace
}  // namespace parc::ptask
