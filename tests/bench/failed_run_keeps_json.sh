# A JSON-writing suite whose run fails must leave an existing output file
# untouched: the bench document is buffered and written only after the last
# cell. Here synthesis fails (exact QM is limited to 12 inputs; t481 has 16)
# and the driver reports it as a usage-class error. An empty --json path is
# a failed write: the BENCH grid still runs in full, then exits 2.
#
# Usage: sh failed_run_keeps_json.sh <path-to-mcx_bench>
set -u
BENCH="$1"
[ -x "$BENCH" ] || { echo "mcx_bench binary not found: $BENCH"; exit 1; }
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "FAIL: $1"; cat "$DIR/err.txt"; exit 1; }

printf '{"committed": true}\n' > "$DIR/f.json"
cp "$DIR/f.json" "$DIR/before.json"

"$BENCH" multilevel --samples 3 --json "$DIR/f.json" \
  --circuit-spec '{"circuit":"t481","synth":"qm"}' > "$DIR/out.txt" 2> "$DIR/err.txt"
code=$?
[ "$code" -eq 2 ] || fail "expected exit 2, got $code"
grep -q '^mcx_bench multilevel: ' "$DIR/err.txt" || fail "missing 'mcx_bench multilevel: ' message"
cmp -s "$DIR/f.json" "$DIR/before.json" || fail "f.json was modified"

"$BENCH" multilevel --samples 3 --json "" > "$DIR/out.txt" 2> "$DIR/err.txt"
code=$?
[ "$code" -eq 2 ] || fail "empty --json path: expected exit 2, got $code"
grep -q "^mcx_bench multilevel: cannot write ''" "$DIR/err.txt" ||
  fail "empty --json path: missing 'mcx_bench multilevel: cannot write' message"
echo "PASS"
