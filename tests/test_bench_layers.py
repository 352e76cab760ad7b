"""The layer harness ``bench/layers.py``: one repetition writes every row."""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ulrich_lab import checks, cli

REPO = Path(__file__).resolve().parent.parent
HARNESS = REPO / "bench" / "layers.py"
ROUTES = ("rank_by_recurrence", "rank_closed_form", "iterate_syzygy",
          "closed_syzygy_chern_numeric", "closed_syzygy_chern", "rank_two_table_chern",
          "recurrence_triple")


def expected_rows() -> list[str]:
    rows = ["import.ulrich_lab", "import.ulrich_lab.cli"]
    rows += ["picard.dot", "picard.add", "picard.parse_divisor", "picard.format_divisor",
             "picard.permute_exceptionals"]
    rows += [f"picard.{op}.{kind}" for op in ("hash", "str", "repr")
             for kind in ("fresh", "census")]
    rows += ["picard.classes_with.cubics", "picard.classes_with.lines"]
    rows += ["chern.tensor", "chern.tensor_line", "chern.twist_by_h", "chern.euler_char",
             "chern.direct_sum"]
    rows += [f"syzygy.{route}.k{k}" for route in ROUTES for k in (20, 200, 1000)]
    rows += [f"syzygy.{reader}.k{k}" for reader in ("trace_to_dict", "discriminant_drift")
             for k in (20, 200, 1000)]
    rows += ["cubic.chi_pair_oracle.all_pairs", "cubic.validate.r3"]
    rows += [f"cubic.decompose_stable_sum.r{r}" for r in (2, 3, 4)]
    rows += [f"cubic.decompose_pair.r{r}" for r in (2, 3)]
    rows += ["checks.case_draws", "checks.class_draws"]
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
    for name, row in rows.items():
        assert type(row["ops"]) is int and row["ops"] > 0, name
        for form in ("rescaled_us", "raw_us"):
            quartiles = row[form]
            assert quartiles["median"] > 0, name
            assert quartiles["q1"] == quartiles["median"] == quartiles["q3"], name


def _git(cwd: Path, *args: str) -> str:
    config = ("user.name=bench", "user.email=bench@localhost", "commit.gpgsign=false")
    return subprocess.run(["git", *(f for c in config for f in ("-c", c)), *args], cwd=cwd,
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("nested", [True, False])
def test_commit_is_the_checkouts_own(tmp_path, nested):
    """A copy inside another work tree records "unknown", not that tree's HEAD;
    a copy that is its own work tree's root records its HEAD."""
    outer = tmp_path / "outer"
    copy = outer / "checkout" if nested else outer
    for part in ("bench", "src", "perfbench"):
        shutil.copytree(REPO / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    _git(outer, "init", "-q")
    _git(outer, "add", "-A")
    _git(outer, "commit", "-q", "-m", "tree")
    head = _git(outer, "rev-parse", "HEAD")
    out = tmp_path / "bench.json"
    # The real main() with the timing rows stubbed out, so only the record is built.
    script = ("import sys\n"
              f"sys.path.insert(0, {str(copy / 'bench')!r})\n"
              f"sys.argv = ['layers.py', '--out', {str(out)!r}]\n"
              "import layers\n"
              "quartiles = {'median': 1.0, 'q1': 1.0, 'q3': 1.0}\n"
              "layers.measure = lambda repeats: {'row': {'ops': 1, 'rescaled_us': quartiles,"
              " 'raw_us': quartiles}}\n"
              "sys.exit(layers.main())\n")
    subprocess.run([sys.executable, "-W", "error", "-c", script], cwd=copy, check=True,
                   capture_output=True)
    commit = json.loads(out.read_text(encoding="utf-8"))["machine"]["git_commit"]
    assert commit == ("unknown" if nested else head)
