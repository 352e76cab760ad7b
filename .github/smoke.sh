#!/bin/sh
# Console-script smoke test, the one check list of the job without pytest.
# That job installs the package with its runtime dependency (click) only, so
# this list keeps what needs an installed run: the [project.scripts] entry
# point (the CliRunner tests call main in process), refusals and output on
# real file descriptors, and every pinned CLI byte.  Every cross-route and
# round-trip check of the library lives in the Tier-1 tests.
#
# Subcommands are registered at import time, so --help of each one fails on
# a broken declaration; the list is the installed CLI's own, read in its own
# assignment (`sh -e` does not stop on a failed substitution inside a `for`
# list) and refused when empty.  The seed-file runs of `ulrich-lab check`
# take the file from the environment of a real process: a good seed must
# pass, one without c2 must fail naming the key on stderr (a file, since
# `sh -eu` has no pipefail), and a non-Ulrich seed must exit 1 with three
# `raised NotUlrich` rows.  The refusals (a seed file nested 100,000 arrays
# deep, numbers at the interpreter's int-string limit, a second syzygy step
# on the cubic surface) must exit 1 with one `Error:` line and no traceback
# on the real stderr.  Writing to stdout and to --out takes two different
# streams, so each format must give the same bytes through both; the r = 3
# unordered count is read from a file, since `sh -e` does not see a failure
# inside a pipe.  Each subcommand's --format json, written to a file (the
# largest is the syzygy trace at d = 8, k = 194), must be what
# json.dumps(json.loads(text), indent=2) writes, checked under
# `python3 -W error`: beyond the pinned bytes, this is the job's one check
# that the installed renderer writes canonical indent=2 JSON.  A bare run
# whose exit code and bytes the corpus pins is not repeated here.  Last, tests/golden/corpus.py replays the golden corpus,
# every pinned CLI output in manifest.json and the public API pinned in
# api.json (signatures, fields, slots, exception bases, the CLI constants),
# without pytest and under `python3 -W error`, so API drift and a warning
# fail this job as they fail the Tier-1 step.
#
# Usage: sh .github/smoke.sh   (after `pip install .`; exits non-zero on the
# first failing command)
set -eu

ulrich-lab --help
subcommands=$(python3 -c 'from ulrich_lab.cli import main; print(*main.commands)')
if [ -z "$subcommands" ]; then
    echo "smoke: the installed CLI lists no subcommands" >&2
    exit 1
fi
for sub in $subcommands; do
    ulrich-lab "$sub" --help
done
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
for fmt in markdown csv json; do
    ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format "$fmt" > "$stdout_file"
    ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format "$fmt" --out "$out_file"
    cmp "$stdout_file" "$out_file"
    ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --format "$fmt" > "$stdout_file"
    ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --format "$fmt" --out "$out_file"
    cmp "$stdout_file" "$out_file"
done
ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --unordered --out "$out_file"
grep -qx 'count: 240' "$out_file"
for sub in $subcommands; do
    case $sub in
        sequence) set -- --d 7 --k-max 190 ;;
        syzygy) set -- --d 8 --r 3 --c1-sq 72 --k-max 194 ;;
        decompose) set -- "(9;3,3,3,3,3,3)" --r 3 ;;
        *) set -- ;;
    esac
    ulrich-lab "$sub" "$@" --format json > "$out_file"
    python3 -W error -c 'import json, pathlib, sys
text = pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")
if text != json.dumps(json.loads(text), indent=2) + "\n":
    sys.exit(f"smoke: {sys.argv[2]} --format json is not json.dumps(..., indent=2)")' \
        "$out_file" "$sub"
done
python3 -W error "$(dirname "$0")/../tests/golden/corpus.py"
