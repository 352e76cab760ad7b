"""The layer harness ``bench/layers.py``: one repetition writes every row."""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

from ulrich_lab import checks, cli

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
ROUTES = ("rank_by_recurrence", "rank_closed_form", "iterate_syzygy",
          "closed_syzygy_chern_numeric", "closed_syzygy_chern", "rank_two_table_chern")


def expected_rows() -> list[str]:
    rows = ["picard.dot", "picard.add", "picard.parse_divisor", "picard.format_divisor"]
    rows += [f"picard.{op}.{kind}" for op in ("hash", "str", "repr")
             for kind in ("fresh", "census")]
    rows += ["chern.tensor", "chern.tensor_line", "chern.twist_by_h", "chern.euler_char"]
    rows += [f"syzygy.{route}.k{k}" for route in ROUTES for k in (20, 200, 1000)]
    rows += ["cubic.chi_pair_oracle.all_pairs"]
    rows += [f"cubic.decompose_stable_sum.r{r}" for r in (2, 3, 4)]
    rows += [f"checks.{result.name}" for result in checks.run_all_checks()]
    rows += [f"cli.{command}.{fmt}" for command in cli.main.commands for fmt in cli.FORMATS]
    return rows


def test_one_repetition_writes_every_row(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, "-W", "error", str(HARNESS), "--repeat", "1",
                    "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["repeat"] == 1
    assert record["machine"]["python"] == platform.python_version()
    assert record["machine"]["git_commit"]
    assert "PYTHONDONTWRITEBYTECODE" in record
    assert record["reference_cal_s"] > 0
    rows = record["rows"]
    assert sorted(rows) == sorted(expected_rows())
    assert len(rows) == 80
    for name, row in rows.items():
        assert type(row["ops"]) is int and row["ops"] > 0, name
        for form in ("rescaled_us", "raw_us"):
            quartiles = row[form]
            assert quartiles["median"] > 0, name
            assert quartiles["q1"] == quartiles["median"] == quartiles["q3"], name
