#!/bin/sh
# Console-script smoke test: run the installed `ulrich-lab` entry point, so
# the [project.scripts] declaration is exercised (the CliRunner tests call
# main in process).  Subcommands are registered at import time, so --help of
# each one fails on a broken declaration.  The deep syzygy and sequence runs
# take the integer syzygy step and the closed rank form to k = 200; the
# cubics and decompose runs print divisor classes through their str() memo.
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
# d = 3), its drift with expected_moduli_dim of every row, so the job
# without pytest checks both kernels too.
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
trap 'rm -f "$seed_file" "$out_file" "$err_file"' EXIT
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
ulrich-lab syzygy --d 7 --c1-sq 24 --k-max 200 --format json
ulrich-lab sequence --d 8 --k-max 200
ulrich-lab cubics --format csv
ulrich-lab decompose "(4;2,1,1,1,1,0)" --unordered --format json
ulrich-lab decompose "(9;3,3,3,3,3,3)" --r 3 --unordered --out "$out_file"
grep -qx 'count: 240' "$out_file"
python3 "$(dirname "$0")/roundtrip.py"
python3 "$(dirname "$0")/oracle_parity.py"
