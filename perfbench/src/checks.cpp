#include "checks.hpp"

#include <cstdint>

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

bool Checks::conservation(const parc::serve::Server::Stats& s,
                          const std::string& where) {
  const std::size_t before = failures_.size();
  const auto check = [&](bool ok, const char* identity) {
    expect(ok, where + ": " + identity);
  };
  check(s.in_flight == 0, "in_flight == 0 after drain");
  check(s.offered ==
            s.admitted + s.shed_rate + s.shed_queue + s.shed_deadline,
        "offered == admitted + shed");
  check(s.admitted == s.completed + s.failed,
        "admitted == completed + failed");
  check(s.admitted ==
            s.hits_inline + s.negative_hits + s.coalesced + s.executed,
        "admitted == hits + negative hits + coalesced + executed");
  check(s.cache.hits == s.hits_inline + s.negative_hits,
        "cache hits == inline hits + negative hits");
  check(s.cache.misses == s.executed + s.coalesced,
        "cache misses == executed + coalesced");
  std::uint64_t offered_by = 0;
  std::uint64_t admitted_by = 0;
  std::uint64_t shed_by = 0;
  for (std::size_t p = 0; p < parc::serve::kPriorities; ++p) {
    offered_by += s.offered_by[p];
    admitted_by += s.admitted_by[p];
    shed_by += s.shed_by[p];
  }
  check(offered_by == s.offered, "per-priority offered sums to offered");
  check(admitted_by == s.admitted, "per-priority admitted sums to admitted");
  check(shed_by == s.shed_rate + s.shed_queue + s.shed_deadline,
        "per-priority shed sums to shed");
  return failures_.size() == before;
}

}  // namespace perfbench
