// Output checks. A failed check makes the run incorrect: the benchmark exits
// non-zero and the failure counts in error_frac.
#pragma once

#include <string>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

class Checks {
 public:
  /// Record `what` as a failure unless `ok`.
  void expect(bool ok, const std::string& what);

  /// A sort's output must equal the std::sort oracle of its input.
  template <typename T>
  bool sorted_output(const std::vector<T>& out, const std::vector<T>& oracle,
                     const std::string& what) {
    const bool ok = out == oracle;
    expect(ok, what + ": output differs from the std::sort oracle");
    return ok;
  }

  /// The server's conservation identities after drain(): offered, admitted,
  /// shed, completed, failed, cache hits and misses, and the per-priority
  /// sums. Returns whether all of them hold.
  bool conservation(const parc::serve::Server::Stats& s,
                    const std::string& where);

  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

}  // namespace perfbench
