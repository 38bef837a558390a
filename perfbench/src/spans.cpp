#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "stats.hpp"
#include "support/check.hpp"

namespace perfbench {

SpanLog::SpanLog(std::size_t capacity)
    : capacity_(capacity), origin_ns_(now_ns()) {
  spans_.reserve(capacity);
}

std::int32_t SpanLog::open(const char* name, std::uint64_t id) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns() - origin_ns_, 0, parent, id});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (index < 0) return;
  PARC_CHECK_MSG(!stack_.empty() && stack_.back() == index,
                 "spans must close innermost first");
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns() - origin_ns_;
  stack_.pop_back();
}

std::int32_t SpanLog::add(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::uint64_t id) {
  PARC_CHECK(end_ns >= start_ns);
  PARC_CHECK(parent < static_cast<std::int32_t>(spans_.size()));
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, cursor);
      const std::int64_t to = std::min(hi, s.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<std::int32_t> SpanLog::inconsistent_roots() const {
  const std::vector<std::int64_t> self = self_times();
  // Children always follow their parent in the log, so a reverse sweep
  // folds every subtree's self time into its root.
  std::vector<std::int64_t> subtree(self);
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].parent >= 0) {
      subtree[static_cast<std::size_t>(spans_[i].parent)] += subtree[i];
    }
  }
  std::vector<std::int32_t> bad;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 && subtree[i] != s.end_ns - s.start_ns) {
      bad.push_back(static_cast<std::int32_t>(i));
    }
  }
  return bad;
}

std::map<std::string, SpanLog::Summary> SpanLog::summarize() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    sum.self_ns += self[i];
  }
  return out;
}

void SpanLog::write_csv(std::ostream& os) const {
  const std::vector<std::int64_t> self = self_times();
  os << "index,parent,name,id,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ',' << s.parent << ',' << s.name << ',' << s.id << ','
       << s.start_ns << ',' << s.end_ns << ',' << self[i] << '\n';
  }
}

}  // namespace perfbench
