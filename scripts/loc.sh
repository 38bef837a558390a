#!/usr/bin/env bash
# Line-count ledger row: the lines git tracks in src, tests and bench+tools.
#
# Usage: scripts/loc.sh [rev]
#
# With no argument it counts the working tree's copy of every tracked file;
# with a revision (a commit, tag or branch) it counts the files as they are
# at that revision, so `scripts/loc.sh HEAD~1` and `scripts/loc.sh` give the
# delta of the last commit.
set -euo pipefail

cd "$(dirname "$0")/.."

rev="${1:-}"

count() {
  if [[ -n "${rev}" ]]; then
    git archive "${rev}" -- "$@" | tar -xOf - | wc -l
  else
    git ls-files -z -- "$@" | xargs -0 cat | wc -l
  fi
}

src=$(count src)
tests=$(count tests)
bench_tools=$(count bench tools)
printf 'src %s\ntests %s\nbench+tools %s\ntotal %s\n' \
  "${src}" "${tests}" "${bench_tools}" "$((src + tests + bench_tools))"
