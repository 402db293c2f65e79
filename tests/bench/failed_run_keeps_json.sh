# A JSON-writing suite whose run fails must leave an existing output file
# untouched: the bench document is buffered and written only after the last
# cell. For the grid, synthesis fails (exact QM is limited to 12 inputs;
# t481 has 16) and the driver reports it as a usage-class error; the two
# hand-written suites are interrupted mid-run. An empty --json path is a
# failed write: the suite still runs in full, then exits 2. --samples 0, and
# "samples": 0 in a --sweep document, are usage errors rejected before the
# suite runs.
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

"$BENCH" table2 --samples 0 --json "$DIR/f.json" > "$DIR/out.txt" 2> "$DIR/err.txt"
code=$?
[ "$code" -eq 2 ] || fail "--samples 0: expected exit 2, got $code"
grep -q -e '--samples: must be at least 1' "$DIR/err.txt" ||
  fail "--samples 0: missing '--samples: must be at least 1' message"
cmp -s "$DIR/f.json" "$DIR/before.json" || fail "--samples 0: f.json was modified"

# --sweep's members obey the flags' rules: zero or fractional samples and an
# out-of-range rate are usage errors, not a grid of zero-count cells, a
# truncated count, or a model the declaration did not name.
for sweep in '{"samples":0,"circuits":["rd53"],"scenarios":["paper-iid"],"rates":[0.1]}' \
             '{"samples":2.5}' '{"rates":[5]}'; do
  "$BENCH" scenarios --sweep "$sweep" --json "$DIR/f.json" > "$DIR/out.txt" 2> "$DIR/err.txt"
  code=$?
  [ "$code" -eq 2 ] || fail "--sweep $sweep: expected exit 2, got $code"
  grep -q '^mcx_bench scenarios: ' "$DIR/err.txt" ||
    fail "--sweep $sweep: missing 'mcx_bench scenarios: ' message"
  cmp -s "$DIR/f.json" "$DIR/before.json" || fail "--sweep $sweep: f.json was modified"
done
grep -q 'must be numbers in \[0, 1\]' "$DIR/err.txt" ||
  fail "--sweep rates [5]: missing the rate range in the message"

"$BENCH" multilevel --samples 3 --json "" > "$DIR/out.txt" 2> "$DIR/err.txt"
code=$?
[ "$code" -eq 2 ] || fail "empty --json path: expected exit 2, got $code"
grep -q "^mcx_bench multilevel: cannot write ''" "$DIR/err.txt" ||
  fail "empty --json path: missing 'mcx_bench multilevel: cannot write' message"
for suite in ablation-optimality ablation-approx; do
  # Far more samples than 1 s covers: the interrupt lands mid-run.
  timeout -s INT 1 "$BENCH" "$suite" --samples 20000 --json "$DIR/f.json" \
    > "$DIR/out.txt" 2> "$DIR/err.txt"
  code=$?
  [ "$code" -eq 124 ] || fail "$suite: expected the interrupt (124), got $code"
  cmp -s "$DIR/f.json" "$DIR/before.json" || fail "$suite: f.json was modified"

  "$BENCH" "$suite" --samples 3 --json "" > "$DIR/out.txt" 2> "$DIR/err.txt"
  code=$?
  [ "$code" -eq 2 ] || fail "$suite: empty --json path: expected exit 2, got $code"
  grep -q "^mcx_bench $suite: cannot write ''" "$DIR/err.txt" ||
    fail "$suite: empty --json path: missing 'mcx_bench $suite: cannot write' message"
done
echo "PASS"
