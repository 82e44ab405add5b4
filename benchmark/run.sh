#!/bin/sh
# Build the benchmark from source and run it, passing every argument on:
#   sh benchmark/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
# Run it from the root of a checkout of the repository.
set -eu
if [ ! -f dune-project ] || [ ! -f benchmark/dune ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run this from the root of a checkout of the repository" >&2
  exit 2
fi
# keep the build's temporaries inside the checkout, and stay out of the
# shared dune cache, which lives outside it
TMPDIR="$(pwd)/.benchmark/tmp"
export TMPDIR
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled dune build --root . --display quiet benchmark/main.exe 1>&2
exe=./_build/default/benchmark/main.exe
# Run on one CPU, the last this process may use, so the host-speed probe
# times the CPU the measured work runs on (see README.md, Host noise).
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null |
  tr ',' '\n' | tail -n 1 | sed 's/.*-//')
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
