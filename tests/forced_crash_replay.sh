#!/bin/sh
# A forced crash in the fault_matrix cell MPK/pkru-desync, run among four
# engine workers, must exit nonzero and leave exactly one crash bundle whose
# manifest names that cell and whose replay spec is that fault cell; then
# `memsentry_cli replay` on the bundle must die with the same exit code.
#
# usage: forced_crash_replay.sh MEMSENTRY_CLI SCRATCH_DIR
cli=$1
dir=$2
rm -rf "$dir" && mkdir -p "$dir" || exit 1

fail() {
  echo "FAIL: $*"
  for log in "$dir"/*.log; do
    echo "--- $log"
    cat "$log"
  done
  exit 1
}

"$cli" run fault_matrix --force-crash=MPK/pkru-desync --jobs=4 \
  --bundle-root="$dir/bundles" > "$dir/forced.log" 2>&1
first=$?
echo "forced crash exit: $first"
[ "$first" -ne 0 ] || fail "the forced crash exited 0"

count=$(ls -d "$dir"/bundles/*/ 2>/dev/null | wc -l)
[ "$count" -eq 1 ] || fail "expected one bundle, found $count"
bundle=$(ls -d "$dir"/bundles/*/)
manifest="$bundle/manifest.json"
cat "$manifest"
for expected in '"cell": "MPK/pkru-desync"' '"kind":"fault_cell"' '"technique":"MPK"' \
    '"site":"pkru-desync"' '"force_crash":"MPK/pkru-desync"'; do
  grep -qF "$expected" "$manifest" || fail "manifest lacks $expected"
done

"$cli" replay "$bundle" > "$dir/replay.log" 2>&1
second=$?
echo "replay exit: $second"
[ "$second" -eq "$first" ] || fail "replay exit $second differs from the crash's $first"
rm -rf "$dir"
