// Chrome trace-event JSON export: turns a TraceDump into a file that loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Mapping:
//  - every recorded thread becomes a named track (metadata "M" events);
//  - each event is written as its row of the kind table in obs/trace.hpp
//    says: span kinds (job, task, region, barrier, EDT event, join-wait,
//    serve request) become duration events ("B"/"E"), which nest naturally
//    per track — a ptask task span sits inside the scheduler job span that
//    ran it;
//  - dependence edges become flow events ("s" at the predecessor's finish,
//    "f" at the successor's start) so Perfetto draws the task-graph arrows;
//  - everything else (spawn, ready, steal, park, EDT hops) becomes a
//    thread-scoped instant event ("i").
#pragma once

#include <iosfwd>

#include "obs/trace.hpp"

namespace parc::obs {

/// Write `dump` as trace-event JSON ({"traceEvents": [...]}) to `os`.
void write_chrome_trace(const TraceDump& dump, std::ostream& os);

/// Read a trace-event JSON file written by write_chrome_trace back into a
/// TraceDump: thread tracks (tid + label) from the "M" metadata records,
/// every runtime event from its (ph, name, cat) triple plus the lossless
/// args.id/args.arg pair the writer emits. Derived records (flow arrows,
/// counter tracks) are skipped — they are re-derivable. This is what lets
/// tools ingest any `--trace` output instead of re-running the program;
/// extract_task_graph / build_serve_dag / build_flow_dag consume the result
/// exactly as if the session had just ended in-process.
///
/// Throws std::runtime_error on malformed input (not a PARC_CHECK: a trace
/// file is user input, not a program invariant).
[[nodiscard]] TraceDump read_chrome_trace(std::istream& is);

}  // namespace parc::obs
