// Parallel Task pipelines: a chain of stages connected by bounded channels,
// all stages active simultaneously — element k can be in stage 3 while
// element k+2 is in stage 1. Order is preserved end to end (each stage is
// sequential), which is the semantics Parallel Task's pipeline construct
// gives GUI applications streaming intermediate results.
//
//   auto done = ptask::pipeline(rt, std::move(paths),
//       [](std::string p){ return load(p); },
//       [](Image i){ return scale(i); });
//   std::vector<Thumb> thumbs = done.get();
//
// This is a thin configuration of flow::Pipeline that keeps the
// ParallelTask-shaped API: every stage is wrapped in flow::stage(...), so
// each one runs on its own flow stage thread behind an SPSC channel (never
// on a bounded compute worker, where a blocked stage could have its own
// upstream nested under it by helping), and nothing fuses. One interactive
// task feeds the inputs and waits for the pipeline, so a stage that throws
// poisons the chain and its exception rethrows from get().
#pragma once

#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "flow/pipeline.hpp"
#include "ptask/spawn.hpp"

namespace parc::ptask {

namespace detail {

/// Append each callable as its own stage. A stage's result is returned
/// inside an engaged std::optional, so a stage whose own result is a
/// std::optional stays a map instead of becoming a flow filter.
template <typename Builder>
auto add_stages(Builder b) {
  return b;
}

template <typename Builder, typename F, typename... Rest>
auto add_stages(Builder b, F f, Rest... rest) {
  auto stage = [f = std::move(f)](auto x) {
    using Out = decltype(f(std::move(x)));
    static_assert(!std::is_void_v<Out>,
                  "pipeline stages must return a value; put side effects in "
                  "the sink stage's result");
    static_assert(std::is_default_constructible_v<Out>,
                  "pipeline stage results cross a flow::Channel, whose ring "
                  "slots are default-constructed");
    return std::optional<Out>(f(std::move(x)));
  };
  return add_stages(std::move(b).then(flow::stage(std::move(stage))),
                    std::move(rest)...);
}

}  // namespace detail

/// Build and start a pipeline over `inputs`; returns a handle whose value is
/// the ordered vector of final-stage outputs.
template <typename In, typename... Stages>
auto pipeline(Runtime& rt, std::vector<In> inputs, Stages... stages) {
  return run_interactive(rt, [inputs = std::move(inputs),
                              ... stages = std::move(stages)]() mutable {
    auto p = detail::add_stages(
                 flow::pipeline<In>({.single_producer = true}),
                 std::move(stages)...)
                 .collect();
    p.push_n(std::span<In>(inputs));
    return p.wait();
  });
}

template <typename In, typename... Stages>
auto pipeline(std::vector<In> inputs, Stages... stages) {
  return pipeline(Runtime::global(), std::move(inputs), std::move(stages)...);
}

}  // namespace parc::ptask
