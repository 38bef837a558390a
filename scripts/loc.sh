#!/usr/bin/env bash
# Line-count ledger row: the lines git tracks in src, tests and bench+tools.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count() { git ls-files -z -- "$@" | xargs -0 cat | wc -l; }

src=$(count src)
tests=$(count tests)
bench_tools=$(count bench tools)
printf 'src %s\ntests %s\nbench+tools %s\ntotal %s\n' \
  "${src}" "${tests}" "${bench_tools}" "$((src + tests + bench_tools))"
