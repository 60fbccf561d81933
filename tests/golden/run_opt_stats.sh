#!/bin/sh
# run_opt_stats.sh <cmmi> <cmmi args...>
#
# cmmi --optimize --opt-stats must print the same optimizer pass table when
# it compiles in memory and when it compiles through a cold --cache-dir
# (the wall-time column and total are masked; everything else must match
# byte for byte, and at least one pass must have run).
set -u
CMMI=$1
shift

TMP=$(mktemp -d) || exit 99
trap 'rm -rf "$TMP"' EXIT INT TERM

table() {
  sed -n '/^=== optimizer passes ===/,/^total:/p' "$1" |
    awk '/^total:/ { sub(/total: [0-9.]+ ms, /, "total: "); print; next }
         NF == 6 { $3 = "-" }
         { print }'
}

"$CMMI" --optimize --opt-stats "$@" >/dev/null 2>"$TMP/mem.err"
"$CMMI" --optimize --opt-stats --cache-dir "$TMP/cache" "$@" \
  >/dev/null 2>"$TMP/disk.err"
table "$TMP/mem.err" >"$TMP/mem.tab"
table "$TMP/disk.err" >"$TMP/disk.tab"

if ! awk 'NF == 6 && $2 ~ /^[0-9]+$/ && $2 > 0 { found = 1 }
          END { exit !found }' "$TMP/mem.tab"; then
  echo "FAIL: no optimizer pass ran in the in-memory compile"
  cat "$TMP/mem.err"
  exit 1
fi
if ! diff -u "$TMP/mem.tab" "$TMP/disk.tab"; then
  echo "FAIL: --cache-dir pass table differs from the in-memory one"
  exit 1
fi
exit 0
