#!/bin/sh
# One run of one workload, as BENCHMARK.json invokes it from the root of a
# checkout:
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# dune builds the benchmark (and the libraries it drives) from source
# first; the last line of stdout is the JSON result. The shared dune
# cache is off and temporary files go under _build, so nothing is
# written outside the checkout.
mkdir -p _build/tmp || exit 1
TMPDIR="$PWD/_build/tmp" DUNE_CACHE=disabled \
  exec dune exec --root . --display quiet bench/perf/main.exe -- "$@"
