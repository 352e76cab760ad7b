#!/bin/sh
# Console-script smoke test, the one check list of the job without pytest.
# That job installs the package with its runtime dependency (click) only,
# so it checks what an installed run alone can show: the [project.scripts]
# entry point (the CliRunner tests call main in process), refusals and
# output on real file descriptors, and every pinned CLI byte.  Every
# cross-route and round-trip check of the library lives in the Tier-1 tests.
#
# Subcommands are registered at import time, so --help of each one fails on
# a broken declaration.  `ulrich-lab check` runs the self-check suite, among
# it the chi oracle on all 72^2 pairs of twisted cubics and the closed Chern
# routes against iterate_syzygy.  One check run reads a seed file, so the
# validating path from JSON to BundleNumerics runs; a second one reads a
# seed file without c2 and must fail, naming the key on stderr (a file,
# since `sh -eu` has no pipefail); a third reads a seed that is not an
# Ulrich candidate and must exit 1 with three `raised NotUlrich` rows.  Four
# requests must be refused with exit 1, one `Error:` line and no traceback
# on stderr: a seed file nested 100,000 arrays deep, a sequence whose N_1 is
# longer than the interpreter's int-string limit, a syzygy seed whose r has
# as many digits as that limit allows (the refusal must name that number by
# its type), and a second syzygy step on the cubic surface, which must print
# the degree-3 rule of the syzygy routes word for word.  The deep syzygy and
# sequence runs go to k = 200, and the syzygy JSON is read back: 202 rows,
# each with drift 1 and the rank of the three-term recurrence.  The same
# syzygy request, and the same r = 3 decompose request (1,440 rows), in
# each format must write the same bytes to stdout as with --out; the r = 3
# unordered count is checked from a file, since `sh -e` does not see a
# failure inside a pipe.  Last, tests/golden/corpus.py replays the golden
# corpus, every pinned CLI output, under `python3 -W error`, so a warning
# fails this job as it fails the Tier-1 step.
#
# Usage: sh .github/smoke.sh   (after `pip install .`; exits non-zero on the
# first failing command)
set -eu

ulrich-lab --help
for sub in sequence syzygy table-moduli table-pairs cubics decompose check; do
    ulrich-lab "$sub" --help
done
ulrich-lab check --format json
seed_file=$(mktemp)
out_file=$(mktemp)
err_file=$(mktemp)
stdout_file=$(mktemp)
trap 'rm -f "$seed_file" "$out_file" "$err_file" "$stdout_file"' EXIT
printf '%s\n' '[{"rank": 2, "c1": "(6;2,2,2,2,2)", "c2": 6}]' > "$seed_file"
ULRICH_LAB_SEED_FILE="$seed_file" ulrich-lab check
printf '%s\n' '[{"rank": 2, "c1": "(6;2,2,2,2,2)"}]' > "$seed_file"
if ULRICH_LAB_SEED_FILE="$seed_file" ulrich-lab check > "$out_file" 2> "$err_file"; then
    echo "smoke: check accepted a seed file without c2" >&2
    exit 1
fi
grep -qF 'missing key(s) c2' "$err_file"
printf '%s\n' '[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 5}]' > "$seed_file"
status=0
ULRICH_LAB_SEED_FILE="$seed_file" ulrich-lab check > "$out_file" || status=$?
if [ "$status" -ne 1 ] || [ "$(grep -c 'raised NotUlrich' "$out_file")" -ne 3 ]; then
    echo "smoke: check with a non-Ulrich seed exited $status, wanted 1 and 3 raised rows" >&2
    exit 1
fi
# ulrich-lab ARGS must exit 1 with one `Error:` line and no traceback.
expect_refusal() {
    status=0
    ulrich-lab "$@" > "$out_file" 2> "$err_file" || status=$?
    if [ "$status" -ne 1 ] || [ "$(grep -c '^Error: ' "$err_file")" -ne 1 ] \
            || grep -q Traceback "$err_file"; then
        echo "smoke: ulrich-lab $1 exited $status; wanted 1, one Error: line, no traceback" >&2
        cat "$err_file" >&2
        exit 1
    fi
}
python3 -c 'print("[" * 100000 + "]" * 100000)' > "$seed_file"
export ULRICH_LAB_SEED_FILE="$seed_file"
expect_refusal check
unset ULRICH_LAB_SEED_FILE
expect_refusal sequence --d 8 --k-max 1 \
    --r "$(python3 -c 'import sys; print(10 ** (sys.get_int_max_str_digits() - 1))')"
expect_refusal syzygy --d 8 --c1-sq 1 \
    --r "$(python3 -c 'import sys; print("9" * sys.get_int_max_str_digits())')"
grep -qF 'Error: NotUlrichCompatible: ' "$err_file"
expect_refusal syzygy --d 3 --c1-sq 8 --k-max 1
grep -qxF 'Error: OutOfTheoremScope: degree 3 supports the first syzygy step only (k_max <= 0); deeper iterations are not globally generated' "$err_file"
ulrich-lab table-pairs
ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format json > "$out_file"
python3 -c '
import json, sys
entries = json.load(open(sys.argv[1]))["entries"]
assert len(entries) == 202, f"{len(entries)} rows, wanted 202"
assert all(row["drift"] == 1 for row in entries), "a drift is not 1"
ranks = [2, 12]  # N_{-1} = r, N_0 = r (d - 1), N_k = (d - 2) N_{k-1} - N_{k-2}
while len(ranks) < 202:
    ranks.append(5 * ranks[-1] - ranks[-2])
assert [row["rank"] for row in entries] == ranks, "a rank is off the recurrence"
' "$out_file"
for fmt in markdown csv json; do
    ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format "$fmt" > "$stdout_file"
    ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format "$fmt" --out "$out_file"
    cmp "$stdout_file" "$out_file"
    ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --format "$fmt" > "$stdout_file"
    ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --format "$fmt" --out "$out_file"
    cmp "$stdout_file" "$out_file"
done
ulrich-lab sequence --d 8 --k-max 200
ulrich-lab cubics --format csv
ulrich-lab decompose "(4;2,1,1,1,1,0)" --unordered --format json
ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --unordered --out "$out_file"
grep -qx 'count: 240' "$out_file"
python3 -W error "$(dirname "$0")/../tests/golden/corpus.py"
