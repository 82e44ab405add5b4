#!/bin/sh
# Writes into DIR what a refactor that claims no behaviour change must
# leave byte-identical:
#   render.txt              bench/render_dump.exe: 48 Table I kernels' emitted
#                           source and Emit.version
#   check_cascadelake.txt   stdout of `unitc check --target cascadelake`
#   check_graviton2.txt     stdout of `unitc check --target graviton2`
#   bench_report_x86.json   `unitc bench-report --target x86`
# Run it in a checkout of the parent and in one of the change, then
# `diff -r DIR_PARENT DIR_CHANGE`: no output means identical.
#
#   sh bench/identity.sh DIR
set -e
out=${1:?usage: sh bench/identity.sh DIR}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(dirname "$0")/.."
dune build ./bench/render_dump.exe ./bin/unitc.exe
./_build/default/bench/render_dump.exe > "$out/render.txt"
./_build/default/bin/unitc.exe check --target cascadelake > "$out/check_cascadelake.txt"
./_build/default/bin/unitc.exe check --target graviton2 > "$out/check_graviton2.txt"
./_build/default/bin/unitc.exe bench-report --target x86 > "$out/bench_report_x86.json"
