#!/bin/sh
# Console-script smoke test: run the installed `ulrich-lab` entry point, so
# the [project.scripts] declaration is exercised (the CliRunner tests call
# main in process).  Subcommands are registered at import time, so --help of
# each one fails on a broken declaration.  The deep syzygy and sequence runs
# take the integer syzygy step and the closed rank form to k = 200, and the
# syzygy JSON is read back: 202 rows, each with drift 1 and the rank of the
# three-term recurrence, written out here; the cubics and decompose runs
# print divisor classes through their str() memo.  The same syzygy request,
# and the same r = 3 decompose request (1,440 rows), in each format must
# write the same bytes to stdout, a real file descriptor here, as it writes
# with --out: both are streamed into their destination as they are rendered.
# One check run reads a seed file, so the validating path from JSON to
# BundleNumerics (load_seed_file, BundleNumerics.from_dict) runs as well as
# the library's internal results, which skip re-validation; a second one
# reads a seed file without c2 and must fail, naming the key on stderr (a
# file again, since `sh -eu` has no pipefail); a third reads a seed that is
# not an Ulrich candidate and must exit 1 with three `raised NotUlrich` rows,
# so the runner's exception path runs as well.  The r = 3
# decompose run takes the search through its first-part scan and its
# pair-table lookup of the last two parts; its count is checked from a file,
# since `sh -e` does not see a failure inside a pipe.  roundtrip.py
# pickles, copies and replaces every slotted value type and four syzygy
# traces, two of them before their rows are read, with the standard library
# only; oracle_parity.py compares the
# Euler-pairing kernel of chi_pair_oracle with its dual-tensor-euler_char
# composition on all 72^2 pairs of twisted cubics, and the fused step of
# iterate_syzygy with the twist_by_h(syzygy_numerics(F, euler_char(F)), 1)
# composition on every default seed, exact and reduced, to k = 40 (k = 0 on
# d = 3), its drift with expected_moduli_dim of every row, and
# is_ulrich_candidate with the euler_char(twist_by_h(F, -1 and -2))
# composition on the random bundles, the seeds and their near misses (c2 +- 1,
# an odd c1^2 - rd, c1.H +- 1 and +- 2), so the job without pytest checks
# all three kernels too.  Both scripts run under `python3 -W error`, so a
# warning (a deprecation in the standard library, a stray RuntimeWarning)
# fails the runtime-only job, which has no pytest, as it fails the Tier-1 step.
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
python3 -W error "$(dirname "$0")/roundtrip.py"
python3 -W error "$(dirname "$0")/oracle_parity.py"
