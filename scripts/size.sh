#!/usr/bin/env bash
# The size numbers a ROADMAP re-anchor quotes, counted one way: lines by
# `wc -l` over the checkout (dot-directories such as .bench_build/ left out),
# flags by the two flags.golden ledgers. Informational: it gates nothing.
#
#   bash scripts/size.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# lines FIND-TESTS...: total lines of the files under . the tests select.
lines() {
  find . -path './.*' -prune -o -type f \( "$@" \) -print0 | xargs -0 -r cat | wc -l
}

printf '%7d  non-test, non-benchmark Go\n' "$(lines -name '*.go' ! -name '*_test.go' ! -path './benchmark/*')"
printf '%7d  test Go outside benchmark/\n' "$(lines -name '*_test.go' ! -path './benchmark/*')"
printf '%7d  benchmark/ Go\n' "$(lines -name '*.go' -path './benchmark/*')"
for doc in README.md EXPERIMENTS.md DESIGN.md; do
  printf '%7d  %s\n' "$(lines -path "./$doc")" "$doc"
done
printf '%7d  flags (cmd/triq + cmd/triqd flags.golden)\n' "$(lines -path './cmd/*/testdata/flags.golden')"
