#!/bin/sh
# Writes into DIR what a refactor that claims no behaviour change must
# leave byte-identical:
#   render.txt              bench/render_dump.exe: 48 Table I kernels' emitted
#                           source and Emit.version
#   tuned.txt               bench/tuned_dump.exe: every distinct zoo kernel's
#                           tuned config, mapping count and modelled cycles
#                           on x86 and Arm
#   check_cascadelake.txt   stdout of `unitc check --target cascadelake`
#   check_graviton2.txt     stdout of `unitc check --target graviton2`
#   bench_report_x86.json   `unitc bench-report --target x86`
#   digests.txt             `unitc run`'s output digest on the compiled,
#                           reference and emitted engines for a vnni conv,
#                           the same conv on arm.udot and the bf16.dot
#                           matmul pack kernel
# Run it in a checkout of the parent and in one of the change, then
# `diff -r DIR_PARENT DIR_CHANGE`: no output means identical.  A change
# that means to change the emitted source leaves render.txt apart; the
# emitted engine's digests then show the outputs did not change.
#
#   sh bench/identity.sh DIR
set -e
out=${1:?usage: sh bench/identity.sh DIR}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(dirname "$0")/.."
dune build ./bench/render_dump.exe ./bench/tuned_dump.exe ./bin/unitc.exe
./_build/default/bench/render_dump.exe > "$out/render.txt"
./_build/default/bench/tuned_dump.exe > "$out/tuned.txt"
./_build/default/bin/unitc.exe check --target cascadelake > "$out/check_cascadelake.txt"
./_build/default/bin/unitc.exe check --target graviton2 > "$out/check_graviton2.txt"
./_build/default/bin/unitc.exe bench-report --target x86 > "$out/bench_report_x86.json"
run() { ./_build/default/bin/unitc.exe run "$@" | sed -n 's/^output digest: //p'; }
for engine in compiled reference emitted; do
  echo "conv2d vnni $engine: $(run --op conv2d --ic 16 --hw 8 --oc 32 --engine $engine)"
  echo "conv2d arm.udot $engine: $(run --op conv2d --ic 16 --hw 8 --oc 32 --isa arm.udot --engine $engine)"
  echo "matmul bf16.dot $engine: $(run --op matmul --isa bf16.dot \
    --isa-pack examples/isa/bf16_dot.uisa -n 16 -m 16 --kdim 32 --engine $engine)"
done > "$out/digests.txt"
