#!/usr/bin/env bash
# `nwcsim --config=FILE` must reject a key outside [machine] (exit 2 with
# "unknown INI key: S.K") and still accept a well-formed machine file.
#
# Usage: nwcsim_config_smoke.sh <nwcsim>
set -euo pipefail

NWCSIM=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

printf '[machin]\nnodes = 4\n' > "$WORK/typo.ini"
rc=0
"$NWCSIM" --config="$WORK/typo.ini" --dump-config > "$WORK/out" 2> "$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: exit $rc for a [machin] section, want 2"; exit 1; }
grep -qF 'unknown INI key: machin.nodes' "$WORK/err" ||
  { echo "FAIL: stderr lacks 'unknown INI key: machin.nodes':"; cat "$WORK/err"; exit 1; }

printf '[machine]\nnodes = 4\n' > "$WORK/good.ini"
"$NWCSIM" --config="$WORK/good.ini" --dump-config > "$WORK/out"
grep -qE '^nodes *= *4$' "$WORK/out" ||
  { echo "FAIL: --dump-config does not show nodes = 4:"; cat "$WORK/out"; exit 1; }
echo "PASS"
