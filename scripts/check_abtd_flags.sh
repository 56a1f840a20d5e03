#!/usr/bin/env bash
# abtd must reject every malformed numeric flag with exit 64 (usage error)
# before it starts anything: no listener, no socket file. Values outside
# the flag's integer type used to wrap (--port 4294967377 served port 81,
# --cache-bytes 4294967297 made a 1-byte cache) and nan passed both bound
# checks of --min-budget-factor.
#
# Usage: scripts/check_abtd_flags.sh path/to/abtd
set -uo pipefail

ABTD=${1:?usage: check_abtd_flags.sh path/to/abtd}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
socket="$work/abtd.sock"

failures=0
while read -r flag value; do
  out=$(timeout 10 "$ABTD" --socket "$socket" "$flag" "$value" 2>&1)
  rc=$?
  if [[ $rc -ne 64 ]] || grep -q listening <<< "$out" || [[ -e $socket ]]; then
    echo "FAIL abtd $flag $value: exit $rc: $out" >&2
    failures=$((failures + 1))
  fi
  rm -f "$socket"
done <<'CASES'
--port 4294967377
--port 80x
--port +
--cache-bytes 4294967297
--cache-entries 4294967297
--queue-cap 4294967297
--queue-soft 2.5
--max-progress 1e3
--min-budget-factor nan
--min-budget-factor inf
--default-budget-ms nan
--default-budget-ms inf
--default-budget-ms 0x10
CASES

if (( failures > 0 )); then
  echo "check_abtd_flags: $failures malformed flag(s) not rejected" >&2
  exit 1
fi
echo "check_abtd_flags: every malformed numeric flag exits 64"
