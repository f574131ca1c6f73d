#!/usr/bin/env bash
# `nwctrace info|stat` must read an nwcgen trace (exit 0), and must reject
# a retired subcommand, an empty file, a garbage file and a truncated
# .nwcb with exit 2 and a block-trace message on stderr.
#
# Usage: nwctrace_smoke.sh <nwcgen> <nwctrace>
set -euo pipefail

NWCGEN=$1
NWCTRACE=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$NWCGEN" --spec='synth:clients=4;objects=256;ops=200' --quiet --out="$WORK/wl.nwcb"
for cmd in info stat; do
  "$NWCTRACE" "$cmd" "$WORK/wl.nwcb" > "$WORK/out" ||
    { echo "FAIL: nwctrace $cmd on an nwcgen trace exited $?"; exit 1; }
done
"$NWCTRACE" info "$WORK/wl.nwcb" | grep -q '^clients: *4$' ||
  { echo "FAIL: nwctrace info does not report 4 clients"; exit 1; }

# expect_reject NAME ARGS...: exit 2, and stderr names a block trace.
expect_reject() {
  local name=$1
  shift
  local rc=0
  "$NWCTRACE" "$@" > "$WORK/out" 2> "$WORK/err" || rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL: $name exited $rc, want 2"; exit 1; }
  grep -q 'block trace' "$WORK/err" ||
    { echo "FAIL: $name stderr lacks 'block trace':"; cat "$WORK/err"; exit 1; }
}

: > "$WORK/empty.nwcb"
printf 'garbage' > "$WORK/garbage.nwcbt"
size=$(wc -c < "$WORK/wl.nwcb")
head -c $((size / 2)) "$WORK/wl.nwcb" > "$WORK/truncated.nwcb"

expect_reject "diff" diff "$WORK/wl.nwcb" "$WORK/wl.nwcb"
expect_reject "info on an empty file" info "$WORK/empty.nwcb"
expect_reject "stat on an empty file" stat "$WORK/empty.nwcb"
expect_reject "info on a garbage file" info "$WORK/garbage.nwcbt"
expect_reject "info on a truncated .nwcb" info "$WORK/truncated.nwcb"
expect_reject "stat on a truncated .nwcb" stat "$WORK/truncated.nwcb"
echo "PASS"
