#!/bin/sh
# Build the server and the benchmark from this checkout, then run one
# benchmark run; arguments go to bxbench (see bxbench.ml):
#   sh perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
set -e
cd "$(dirname "$0")/.."
dune build --root . ./bin/bxwiki.exe ./perfbench/bxbench.exe 1>&2
exec ./_build/default/perfbench/bxbench.exe "$@"
