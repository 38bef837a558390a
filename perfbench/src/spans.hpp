// In-memory spans recorded by the benchmark around the public calls it makes
// into the program. Nothing inside the program is instrumented: a span is
// opened just before a call and closed just after it returns.
//
// One SpanLog belongs to one driving thread, so spans nest strictly. A
// span's self time is its duration minus the part of its interval that its
// children cover; over any root, the self times of the root and all its
// descendants add up to the root's duration exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the log; -1 = root
  std::uint64_t id = 0;      ///< request or element id; 0 = none
};

class SpanLog {
 public:
  /// Keeps at most `capacity` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t capacity);

  /// Open a span under the innermost open one. Returns its index, or -1
  /// when the log is full.
  std::int32_t open(const char* name, std::uint64_t id = 0);
  /// Close the innermost open span (pass the index open() returned).
  void close(std::int32_t index);

  /// Record a span with explicit times and parent (used by the tests).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t id = 0);

  /// RAII helper: open on construction, close on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t id = 0)
        : log_(log), index_(log != nullptr ? log->open(name, id) : -1) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Self time of every span, same indexing as spans().
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

  /// Roots whose subtree self times do not add up to the root's duration
  /// (empty when the log is consistent).
  [[nodiscard]] std::vector<std::int32_t> inconsistent_roots() const;

  struct Summary {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    [[nodiscard]] double mean_ns() const {
      return count == 0 ? 0.0
                        : static_cast<double>(total_ns) /
                              static_cast<double>(count);
    }
  };
  /// Per-name count, total and self time.
  [[nodiscard]] std::map<std::string, Summary> summarize() const;

  /// One line per span: index,parent,name,id,start_ns,end_ns,self_ns.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_;
};

}  // namespace perfbench
