"""End-to-end runs of every subcommand through the click test runner."""

from __future__ import annotations

import csv
import gc
import io
import json
import random
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from ulrich_lab import (
    checks,
    cli,
    cubic,
    decompose_stable_sum,
    decomposition_to_dict,
    iterate_syzygy,
    make_surface,
    parse_divisor,
    syzygy,
    tables,
)
from ulrich_lab.chern import NumericClassData
from ulrich_lab.cli import main
from ulrich_lab.errors import (
    BadSeedFile,
    NotUlrich,
    NotUlrichCompatible,
    OutOfTheoremScope,
    ParseError,
)


@pytest.fixture()
def runner():
    return CliRunner()


class TestSequence:
    def test_happy_path(self, runner):
        result = runner.invoke(main, ["sequence", "--d", "4", "--r", "2", "--k-max", "3"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "| 3 | 18 | 18 | ok |" in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(main, ["sequence", "--d", "5", "--k-max", "4", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["d"] == 5 and payload["r"] == 2
        assert payload["extrapolated"] is False
        assert [row["recurrence"] for row in payload["rows"]] == [8, 22, 58, 152, 398]
        assert all(row["match"] for row in payload["rows"])

    def test_extrapolation_note_at_degree_eight(self, runner):
        result = runner.invoke(main, ["sequence", "--d", "8", "--k-max", "2"])
        assert result.exit_code == 0
        assert "extrapolated" in result.output
        payload = json.loads(
            runner.invoke(main, ["sequence", "--d", "8", "--k-max", "2",
                                 "--format", "json"]).output
        )
        assert payload["extrapolated"] is True

    @pytest.mark.parametrize("d", ["3", "9"])
    def test_degree_out_of_range_is_usage_error(self, runner, d):
        result = runner.invoke(main, ["sequence", "--d", d])
        assert result.exit_code == 2

    def test_k_max_cap(self, runner):
        result = runner.invoke(main, ["sequence", "--d", "4", "--k-max", "201"])
        assert result.exit_code == 2


class TestSyzygy:
    def test_markdown_trace(self, runner):
        result = runner.invoke(main, ["syzygy", "--d", "4", "--c1-sq", "12", "--k-max", "3"])
        assert result.exit_code == 0
        assert "| k | rank | c1_sq | c1_dot_H | c2 | delta | drift |" in result.output
        assert "| 3 | 18 | 396 | 40 | 196 | 324 | 1 |" in result.output

    @pytest.mark.parametrize("d, c1_sq, c2, k_max", [(5, 16, 5, 2), (7, 24, 7, 200)],
                             ids=["d5-k2", "d7-k200"])
    def test_json_matches_library(self, runner, d, c1_sq, c2, k_max):
        # Rank 2, default c2.  The library and the CLI move together, so the
        # rows are also checked against values computed here: the ranks of the
        # three-term recurrence and the drift, 1 for these seeds.
        result = runner.invoke(main, ["syzygy", "--d", str(d), "--c1-sq", str(c1_sq),
                                      "--k-max", str(k_max), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["extrapolated"] is False
        entries = payload["entries"]
        trace = iterate_syzygy(NumericClassData(2, c1_sq, 2 * d, c2), make_surface(d), k_max)
        assert entries == trace.to_dict()["entries"]
        assert len(entries) == k_max + 2
        ranks = [2, 2 * (d - 1)]  # N_{-1} = r, N_0 = r (d - 1), N_k = (d - 2) N_{k-1} - N_{k-2}
        while len(ranks) < k_max + 2:
            ranks.append((d - 2) * ranks[-1] - ranks[-2])
        assert [row["rank"] for row in entries] == ranks
        assert [row["drift"] for row in entries] == [1] * (k_max + 2)

    def test_default_c2_is_ulrich_compatible(self, runner):
        result = runner.invoke(
            main, ["syzygy", "--d", "4", "--c1-sq", "12", "--k-max", "-1", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["entries"][0]["c2"] == 4

    def test_cubic_surface_depth_limit(self, runner):
        result = runner.invoke(main, ["syzygy", "--d", "3", "--c1-sq", "8", "--k-max", "1"])
        assert result.exit_code == 1
        assert "OutOfTheoremScope" in result.output

    def test_cubic_surface_single_step_allowed(self, runner):
        result = runner.invoke(main, ["syzygy", "--d", "3", "--c1-sq", "8", "--k-max", "0"])
        assert result.exit_code == 0

    def test_non_candidate_rejected(self, runner):
        result = runner.invoke(
            main, ["syzygy", "--d", "4", "--c1-sq", "12", "--c2", "5", "--k-max", "2"]
        )
        assert result.exit_code == 1
        assert "NotUlrich" in result.output

    def test_odd_parity_rejected(self, runner):
        result = runner.invoke(main, ["syzygy", "--d", "4", "--c1-sq", "13"])
        assert result.exit_code == 1
        assert "NotUlrichCompatible" in result.output


class TestTables:
    def test_moduli_table(self, runner):
        result = runner.invoke(main, ["table-moduli"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert result.output.count("| ok |") == 9

    def test_moduli_table_json(self, runner):
        payload = json.loads(
            runner.invoke(main, ["table-moduli", "--format", "json"]).output
        )
        assert payload["all_match"] is True
        assert [(row["d"], row["c1_sq"], row["c2"], row["dim"]) for row in payload["rows"]] == [
            (4, 12, 4, 1), (4, 16, 6, 5),
            (5, 16, 5, 1), (5, 20, 7, 5),
            (6, 20, 6, 1), (6, 24, 8, 5),
            (7, 24, 7, 1), (7, 26, 8, 3), (7, 28, 9, 5),
        ]

    def test_pair_table(self, runner):
        result = runner.invoke(main, ["table-pairs", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_match"] is True
        rows = [
            (row["parts"], row["seed_c1"], row["seed_c2"], row["partner_c2"], row["dim"])
            for row in payload["rows"]
        ]
        assert rows == [
            ("A+C", "(4;2,1,1,1,1,0)", 3, 5, 1),
            ("B+B", "(4;1,1,1,1,1,1)", 4, 6, 3),
            ("A+E", "(6;2,2,2,2,2,2)", 5, 7, 5),
        ]
        assert all(row["twists_match"] for row in payload["rows"])


class TestCubicsAndDecompose:
    def test_cubics_csv(self, runner):
        result = runner.invoke(main, ["cubics", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "type,class"
        assert len(lines) == 73
        assert 'A,"(1;0,0,0,0,0,0)"' in lines

    def test_cubics_json_count(self, runner):
        payload = json.loads(runner.invoke(main, ["cubics", "--format", "json"]).output)
        assert payload["count"] == 72
        assert len(payload["classes"]) == 72

    def test_decompose_matches_library(self, runner):
        target_text = "(4;2,1,1,1,1,0)"
        result = runner.invoke(main, ["decompose", target_text, "--r", "2", "--format", "json"])
        assert result.exit_code == 0
        target = parse_divisor(target_text)
        expected = decomposition_to_dict(target, 2, decompose_stable_sum(target, 2))
        assert json.loads(result.output) == expected

    def test_decompose_unordered(self, runner):
        result = runner.invoke(
            main, ["decompose", "(4;2,1,1,1,1,0)", "--unordered", "--format", "json"]
        )
        assert json.loads(result.output)["count"] == 4

    def test_decompose_bad_target_text(self, runner):
        result = runner.invoke(main, ["decompose", "(2;1,1"])
        assert result.exit_code == 1
        assert "ParseError" in result.output

    def test_decompose_wrong_lattice(self, runner):
        result = runner.invoke(main, ["decompose", "(2;1,1)"])
        assert result.exit_code == 1


# The self-check's plan in run order: each check's name and its function.
CHECK_PLAN = [
    ("picard.signature", "check_picard_signature"),
    ("picard.bilinearity", "check_picard_bilinearity"),
    ("picard.permutation-pairing", "check_picard_permutation"),
    ("picard.parser-roundtrip", "check_picard_parser"),
    ("chern.tensor-commutative", "check_chern_tensor_symmetry"),
    ("chern.tensor-associative", "check_chern_tensor_associativity"),
    ("chern.sum-permutation-invariant", "check_chern_sum_permutation"),
    ("chern.chi-additive", "check_chern_chi_additive"),
    ("chern.discriminant-twist-invariant", "check_chern_twist_invariants"),
    ("ulrich.candidate-permutation-invariant", "check_candidate_permutation_invariance"),
    ("syzygy.rank-triangle", "check_rank_triangle"),
    ("syzygy.rank-monotone", "check_rank_monotone"),
    ("syzygy.drift-constant", "check_drift_constant"),
    ("syzygy.delta-growth", "check_delta_growth"),
    ("syzygy.closed-vs-iterate", "check_closed_vs_iterate"),
    ("syzygy.table-vs-closed", "check_table_vs_closed"),
    ("ulrich.thresholds", "check_ulrich_thresholds"),
    ("ulrich.candidates", "check_ulrich_candidates"),
    ("ulrich.moduli-table", "check_moduli_table"),
    ("cubic.census", "check_cubic_census"),
    ("cubic.chi-closed-vs-oracle", "check_cubic_chi_oracle"),
    ("cubic.decompositions", "check_cubic_decompositions"),
    ("cubic.moduli-pairs", "check_cubic_moduli_pairs"),
]


class TestCheck:
    @pytest.mark.parametrize("args,row", [
        (["check"], "| {} | FAIL | {}"),
        (["check", "--format", "json"], '"name": "{}",\n      "passed": false,\n      "detail": "{}'),
    ], ids=["markdown", "json"])
    def test_check_with_failing_seed_file(self, runner, tmp_path, args, row):
        # c2 = 5 is not this class's Ulrich c2 (4): the three syzygy checks
        # that iterate the seed raise NotUlrich, and ulrich.candidates fails.
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 5}]))
        result = runner.invoke(main, args, env={"ULRICH_LAB_SEED_FILE": str(path)})
        assert result.exit_code == 1
        assert result.output.count("raised NotUlrich: ") == 3
        for name in ("syzygy.drift-constant", "syzygy.delta-growth", "syzygy.closed-vs-iterate"):
            assert row.format(name, "raised NotUlrich: ") in result.output
        assert row.format("ulrich.candidates", "BundleNumerics(rank=2, ") in result.output

    def test_raising_checks_are_reported_under_their_plan_names(self, monkeypatch):
        # Every check raises, each with its own function's name: one run shows
        # the plan order, each check's name, the raised detail, and that the
        # suite goes on after every failure.
        for _, function in CHECK_PLAN:
            def boom(*args, function=function):
                raise RuntimeError(function)

            monkeypatch.setattr(checks, function, boom)
        results = checks.run_all_checks()
        assert [(r.name, r.passed, r.detail) for r in results] == [
            (name, False, f"raised RuntimeError: {function}") for name, function in CHECK_PLAN]

    def test_traced_run_times_every_check_under_its_name(self, monkeypatch):
        # perfbench/tracing.py labels a checks.check_* span with the .name of
        # its result; the cli-session metric checks.<name>.ms reads 0 for a
        # check whose span carries no label.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        monkeypatch.setattr(checks, "DEFAULT_CASES", 10)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = checks.run_all_checks()
        finally:
            tracer.uninstall()
        names = [name for name, _ in CHECK_PLAN]
        assert [result.name for result in results] == names == list(tracing.CHECK_NAMES)
        metrics = tracing.aggregate(tracer, {}, Counter())
        assert [name for name in names if metrics[f"checks.{name}.ms"]["value"] <= 0] == []

    def test_check_count_is_the_one_the_benchmark_oracle_requires(self, monkeypatch):
        # cli-session's oracle accepts a `check` answer only with exactly this
        # many results, so a new check line fails there as outputs_incorrect.
        oracle = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        counts = re.findall(r'len\(data\["results"\]\) == (\d+)', oracle.read_text())
        assert len(counts) == 1, "perfbench/workloads.py: no single check result count found"
        monkeypatch.setattr(checks, "DEFAULT_CASES", 10)
        got = len(checks.run_all_checks())
        assert got == int(counts[0]), (
            f"run_all_checks() gives {got} results; the cli-session oracle in "
            f"perfbench/workloads.py requires {counts[0]}")

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "cannot read seed file"),
            ("[{", "is not valid JSON"),
            ('{"rank": 2}', "JSON array"),
            ('[{"rank": 2}]', "missing key(s) c1, c2"),
            ('[{"rank": "two", "c1": "(4;1,1,1,1,0)", "c2": 4}]', "rank must be an integer"),
            ('[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4.5}]', "c2 must be an integer"),
            ('[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": true}]', "c2 must be an integer"),
            ('[{"rank": 2, "c1": 7, "c2": 4}]', "c1 must be divisor text"),
            ('[{"rank": 2, "c1": "(4;1,x)", "c2": 4}]', "ParseError"),
            ('[7]', "expected an object"),
            ('[{"rank": true, "c1": "(4;1,1,1,1,0)", "c2": 4}]', "rank must be an integer"),
            ('[{"rank": 2.0, "c1": "(4;1,1,1,1,0)", "c2": 4}]', "rank must be an integer"),
            ('[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": false}]', "c2 must be an integer"),
            ('[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": "4"}]', "c2 must be an integer"),
        ],
        ids=["missing-file", "not-json", "not-array", "missing-key", "string-rank",
             "float-c2", "bool-c2", "numeric-c1", "bad-divisor", "not-object",
             "bool-rank", "float-rank", "false-c2", "string-c2"],
    )
    def test_malformed_seed_file_is_refused(self, runner, tmp_path, monkeypatch,
                                            content, message):
        path = tmp_path / "seeds.json"
        if content is not None:
            path.write_text(content)
        monkeypatch.setenv("ULRICH_LAB_SEED_FILE", str(path))
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "BadSeedFile" in result.output
        assert message in result.output


class TestOutputPlumbing:
    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "rows.json"
        result = runner.invoke(
            main, ["table-moduli", "--format", "json", "--out", str(path)]
        )
        assert result.exit_code == 0
        assert result.output == ""
        stdout = runner.invoke(main, ["table-moduli", "--format", "json"]).output
        assert path.read_text() == stdout

    def test_out_into_missing_directory_is_refused(self, runner, tmp_path):
        path = tmp_path / "no" / "such" / "dir" / "x.txt"
        result = runner.invoke(main, ["cubics", "--out", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "cannot write" in result.output
        assert not path.parent.exists()


def _run_in_process(args: list[str]) -> tuple[weakref.ref, int]:
    """Run ``ulrich-lab ARGS`` in process under a redirected stdout.

    Returns a weak reference to the buffer that took the output, and the
    exit code; the buffer itself is dropped on return.
    """
    buffer = io.StringIO()
    code = 0
    with redirect_stdout(buffer):
        try:
            main.main(args, prog_name="ulrich-lab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    assert buffer.getvalue()
    return weakref.ref(buffer), code


class TestInProcessOutputIsReleased:
    """An in-process invocation keeps no reference to the stdout it wrote to."""

    def test_every_subcommand_releases_its_buffer(self, tmp_path, monkeypatch):
        # Each subcommand on a small input in every format, then check once,
        # the help pages of the group and of the seven subcommands, and check
        # once more with a failing seed file: that report is written before
        # its SystemExit(1).  One collection for all the calls.
        monkeypatch.setattr(checks, "DEFAULT_CASES", 10)  # check's random cases
        calls = [[*command, "--format", fmt]
                 for command in (["sequence", "--d", "5", "--k-max", "2"],
                                 ["syzygy", "--d", "4", "--c1-sq", "12", "--k-max", "2"],
                                 ["table-moduli"], ["table-pairs"], ["cubics"],
                                 ["decompose", "(4;2,1,1,1,1,0)"])
                 for fmt in ("markdown", "csv", "json")]
        calls.append(["check", "--format", "json"])
        assert len(main.commands) == 7
        calls += [["--help"], *([name, "--help"] for name in main.commands)]
        buffers = []
        for args in calls:
            buffer, exit_code = _run_in_process(args)
            assert exit_code == 0, args
            buffers.append((args, buffer))
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 5}]))
        monkeypatch.setenv("ULRICH_LAB_SEED_FILE", str(path))
        buffer, exit_code = _run_in_process(["check"])
        assert exit_code == 1
        buffers.append((["check", "(failing seed file)"], buffer))
        gc.collect()
        assert [" ".join(args) for args, buffer in buffers if buffer() is not None] == []

    def test_repeated_calls_do_not_accumulate_output(self):
        # The largest syzygy request of the cli-session benchmark workload.
        args = ["syzygy", "--d", "8", "--r", "3", "--c1-sq", "72", "--k-max", "194",
                "--format", "json"]
        # One warm-up call, outside the trace, fills click's and the
        # library's own caches and gives the size of one output.
        output = io.StringIO()
        with redirect_stdout(output):
            main.main(args, prog_name="ulrich-lab", standalone_mode=False)
        size = len(output.getvalue())
        del output
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                _run_in_process(args)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < size


# An r = 3 decompose (1,440 tuples) and the largest syzygy request of the
# cli-session benchmark workload (202 rows).
STREAMED = {
    "decompose-3H-r3": ["decompose", "(9;3,3,3,3,3,3)", "--r", "3"],
    "syzygy-d8-k194": ["syzygy", "--d", "8", "--r", "3", "--c1-sq", "72", "--k-max", "194"],
}


class TestStreamedOutput:
    """Each format is written to its destination as it is rendered."""

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    @pytest.mark.parametrize("name", STREAMED)
    def test_stdout_equals_out_file(self, runner, tmp_path, name, fmt):
        args = [*STREAMED[name], "--format", fmt]
        shown = runner.invoke(main, args)
        assert shown.exit_code == 0
        path = tmp_path / "out.txt"
        written = runner.invoke(main, [*args, "--out", str(path)])
        assert written.exit_code == 0
        assert written.output == ""
        assert path.read_bytes() == shown.stdout_bytes

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_decompose_peak_stays_under_0_6_mib(self, fmt):
        # Streamed, one call peaks near its search and payload (about 0.4
        # MiB); a text built whole before the write adds itself and its
        # pieces, about 1 MiB in all.  One warm-up call, outside the trace,
        # fills the census, the pair table and the divisor-text memo.
        args = [*STREAMED["decompose-3H-r3"], "--format", fmt]
        _run_in_process(args)
        gc.collect()
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()):
                main.main(args, prog_name="ulrich-lab", standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 2**20

    def test_json_rendering_peaks_below_its_text(self):
        # The JSON of syzygy-d8-k194 is written in batches of whole records,
        # so rendering it never holds as much as its own text.  The payload
        # is built first, and one warm-up call, outside the trace, builds the
        # per-depth encoders.
        out = cli.cmd_syzygy(d=8, r=3, c1_sq=72, c2=None, k_max=194)
        cli._write(out, "json", _CountingSink())
        gc.collect()
        tracemalloc.start()
        try:
            sink = _CountingSink()
            cli._write(out, "json", sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.size


class _CountingSink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


# Cells for the CSV fuzz: what csv.writer quotes (a comma, a quote, CR and
# LF) among what it writes as it is.
CSV_PLAIN = "a;()1 "
CSV_ANY = CSV_PLAIN + ',"\r\n'


def _random_csv_row(rng: random.Random) -> list[str]:
    alphabet = CSV_PLAIN if rng.random() < 0.6 else CSV_ANY
    return ["".join(rng.choices(alphabet, k=rng.randint(0, 3)))
            for _ in range(rng.randint(0, 4))]


def _csv_bytes(headers: list[str], rows: list[list[str]]) -> tuple[str, str]:
    """``rows`` under ``headers`` written by ``--format csv`` and by csv.writer."""
    got, want = io.StringIO(), io.StringIO()
    cli._write(cli.CommandOutput({}, headers, iter(rows), [], True), "csv", got)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return got.getvalue(), want.getvalue()


class TestCsvRows:
    """``--format csv`` writes what ``csv.writer(lineterminator="\\n")`` writes."""

    def test_random_rows_match_csv_writer(self):
        rng = random.Random(45)
        for _ in range(10_000):
            headers = _random_csv_row(rng)
            rows = [_random_csv_row(rng) for _ in range(rng.randint(0, 5))]
            got, want = _csv_bytes(headers, rows)
            assert got == want, (headers, rows)

    @pytest.mark.parametrize("headers,rows", [
        (["k", "n"], [["0", "1"], [""], ["2", "3"]]),
        ([""], [["1"]]),
        ([], [["1"], []]),
        (["a,b"], [["1"]]),
        (["k"], [["1"], ['"'], ["2"]]),
        (["k", "n"], [["1", "a\r"], ["2", "b\n"]]),
        (["k", "n"], [["", ""], [" ", "1"]]),
    ], ids=["one-empty-cell", "empty-header", "no-cells", "comma-header", "quote",
            "line-breaks", "empty-and-space-cells"])
    def test_rows_that_need_quoting(self, headers, rows):
        got, want = _csv_bytes(headers, rows)
        assert got == want

    @pytest.mark.parametrize("args,writers", [
        (["sequence", "--d", "7", "--k-max", "50"], 0),
        (["syzygy", "--d", "7", "--c1-sq", "24", "--k-max", "50"], 0),
        (["table-moduli"], 0),
        (["cubics"], 1),
        (["decompose", "(4;2,1,1,1,1,0)"], 1),
    ], ids=["sequence", "syzygy", "table-moduli", "cubics", "decompose"])
    def test_a_table_of_numbers_makes_no_writer(self, runner, monkeypatch, args, writers):
        # Every cell of sequence, syzygy and table-moduli is a number or
        # ok/FAIL; the divisor cells of cubics and decompose hold commas.
        made, writer = [], csv.writer

        def counting(stream, **options):
            made.append(stream)
            return writer(stream, **options)

        expected = runner.invoke(main, [*args, "--format", "csv"]).output
        monkeypatch.setattr(cli.csv, "writer", counting)
        result = runner.invoke(main, [*args, "--format", "csv"])
        assert result.exit_code == 0 and result.output == expected
        assert len(made) == writers


# Strings for the JSON fuzz: what json escapes (a quote, a backslash, control
# characters), non-ASCII and an astral character among plain ones.
JSON_CHARS = 'a "\\\x00\x1f\n\t\x7f\xe9\u20ac\U0001f600'


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choices(JSON_CHARS, k=rng.randint(0, 5)))


def _random_json(rng: random.Random, depth: int = 0):
    """A str-keyed JSON tree, 4 containers deep at most, any of them empty,
    over ints of up to 400 digits of either sign, bools, None and strings."""
    roll = rng.random()
    if roll < 0.5:
        size = rng.randint(0, 4) if depth < 4 else 0
        if roll < 0.25:
            return {_random_text(rng): _random_json(rng, depth + 1) for _ in range(size)}
        return [_random_json(rng, depth + 1) for _ in range(size)]
    if roll < 0.7:
        return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 400))
    if roll < 0.85:
        return _random_text(rng)
    return rng.choice((True, False, None))


class TestJsonRendering:
    """``--format json`` writes what ``json.dumps(payload, indent=2)`` writes."""

    @pytest.fixture(params=["c-encoder", "pure-python"])
    def encoders(self, request, monkeypatch):
        # The per-depth encoders are built after the patch and dropped after
        # it is undone, so the pure-Python fallback runs on CPython too.
        if request.param == "pure-python":
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        cli._layout.cache_clear()
        yield
        monkeypatch.undo()
        cli._layout.cache_clear()

    def test_random_payloads_match_json_dumps(self, encoders):
        rng = random.Random(54)
        for _ in range(4_000):
            payload = _random_json(rng)
            stream = io.StringIO()
            cli._write(cli.CommandOutput(payload, [], [], [], True), "json", stream)
            assert stream.getvalue() == json.dumps(payload, indent=2) + "\n", payload


# The interpreter's int-string limit in digits; 0 (or no such limit) turns it off.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="no int-string limit")
class TestIntStringLimit:
    """An output number longer than the int-string limit is one error line;
    the rows written before it stay."""

    # r = 10**(limit - 1) gives N_0 = 7r with the limit's digits and
    # N_1 = 6 N_0 - r = 41 * 10**(limit - 1) with one more.
    ARGS = ["sequence", "--d", "8", "--r", str(10 ** (INT_DIGITS - 1)), "--k-max", "1"]

    @staticmethod
    def expected() -> tuple[dict[str, str], str]:
        """The output streamed before the refusal in each format, and the error line."""
        n0 = str(7 * 10 ** (INT_DIGITS - 1))
        streamed = {
            "markdown": ("| k | recurrence | closed_form | match |\n| --- | --- | --- | --- |\n"
                         f"| 0 | {n0} | {n0} | ok |\n"),
            "csv": f"k,recurrence,closed_form,match\n0,{n0},{n0},ok\n",
            "json": "",
        }
        with pytest.raises(ValueError) as info:
            str(10 ** INT_DIGITS)
        return streamed, f"Error: ValueError: {info.value}\n"

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_stdout(self, runner, fmt):
        streamed, error = self.expected()
        result = runner.invoke(main, [*self.ARGS, "--format", fmt])
        assert result.exit_code == 1
        assert (result.stdout, result.stderr) == (streamed[fmt], error)

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_out_file(self, runner, tmp_path, fmt):
        streamed, error = self.expected()
        path = tmp_path / "out.txt"
        result = runner.invoke(main, [*self.ARGS, "--format", fmt, "--out", str(path)])
        assert result.exit_code == 1
        assert (result.stdout, result.stderr) == ("", error)
        assert path.read_text() == streamed[fmt]

    def test_cause(self):
        with redirect_stdout(io.StringIO()), pytest.raises(click.ClickException) as info:
            main.main(self.ARGS, prog_name="ulrich-lab", standalone_mode=False)
        assert type(info.value.__cause__) is ValueError


MISSING_SEED_FILE = "no-such-seeds.json"

# The malformed seed files of the seed-file-* refusals below, each written as
# bad-seeds.json in the working directory.
BAD_SEED_FILES = {
    "seed-file-not-json": "not json",
    "seed-file-not-array": '{"rank": 2}',
    "seed-file-not-object": "[7]",
    "seed-file-missing-c2": '[{"rank": 2, "c1": "(4;1,1,1,1,0)"}]',
    "seed-file-bool-rank": '[{"rank": true, "c1": "(4;1,1,1,1,0)", "c2": 4}]',
    "seed-file-numeric-c1": '[{"rank": 2, "c1": 5, "c2": 4}]',
    # Past the recursion limit of the JSON decoder on every supported Python.
    "seed-file-too-deep": "[" * 100_000 + "]" * 100_000,
    "seed-file-huge-rank": '[{"rank": "' + "9" * 10**6 + '", "c1": "(4;1,1,1,1,0)", "c2": 4}]',
}
BAD_SEED_ENTRY = "Error: BadSeedFile: seed file bad-seeds.json, entry 0: "

# Each invalid request class of the benchmark's cli-session workload, then
# library refusals and usage errors outside it (from not-ulrich on): the exit
# code, the error line on stderr, the click exception raised with
# standalone_mode=False and the library error behind it (its __cause__).
REFUSALS = {
    "degree-sequence": (
        ["sequence", "--d", "9"], 2,
        "Error: Invalid value for '--d': 9 is not in the range 4<=x<=8.",
        click.BadParameter, None),
    "degree-syzygy": (
        ["syzygy", "--d", "2", "--c1-sq", "8", "--format", "csv"], 2,
        "Error: Invalid value for '--d': 2 is not in the range 3<=x<=8.",
        click.BadParameter, None),
    "k-max-sequence": (
        ["sequence", "--d", "5", "--k-max", "201", "--format", "json"], 2,
        "Error: Invalid value for '--k-max': 201 is not in the range 0<=x<=200.",
        click.BadParameter, None),
    "k-max-syzygy": (
        ["syzygy", "--d", "5", "--c1-sq", "16", "--k-max", "201"], 2,
        "Error: Invalid value for '--k-max': 201 is not in the range -1<=x<=200.",
        click.BadParameter, None),
    "syzygy-d3-k": (
        ["syzygy", "--d", "3", "--c1-sq", "8", "--k-max", "1", "--format", "csv"], 1,
        "Error: OutOfTheoremScope: degree 3 supports the first syzygy step only "
        "(k_max <= 0); deeper iterations are not globally generated",
        click.ClickException, OutOfTheoremScope),
    "divisor-malformed": (
        ["decompose", "(4;2,1,1,1,1", "--format", "json"], 1,
        "Error: ParseError: expected ')' at position 12",
        click.ClickException, ParseError),
    "divisor-superscript": (
        ["decompose", "(\u00b2;1,0,0,0,0,0)"], 1,
        "Error: ParseError: expected an integer at position 1",
        click.ClickException, ParseError),
    "divisor-4301-digits": (
        ["decompose", "(1" + "0" * 4300 + ";0,0,0,0,0,0)", "--format", "csv"], 1,
        "Error: ParseError: integer too long at position 1",
        click.ClickException, ParseError),
    "divisor-non-ascii-digit": (
        ["decompose", "(2;\u0661,0,0,0,0,0)", "--format", "json"], 1,
        "Error: ParseError: expected an integer at position 3",
        click.ClickException, ParseError),
    "not-ulrich": (
        ["syzygy", "--d", "5", "--c1-sq", "16", "--c2", "6"], 1,
        "Error: NotUlrich: seed NumericClassData(rank=2, c1_sq=16, c1_dot_h=10, c2=6) "
        "fails the numerical Ulrich conditions",
        click.ClickException, NotUlrich),
    "not-ulrich-compatible": (
        ["syzygy", "--d", "5", "--c1-sq", "17"], 1,
        "Error: NotUlrichCompatible: c1^2 = 17 and rank*d = 10 differ by an odd number",
        click.ClickException, NotUlrichCompatible),
    # r has as many digits as the int-string limit allows, so rank*d and the
    # seed's repr are past it; the refusal names them by their type.
    **({
        "not-ulrich-compatible-huge-r": (
            ["syzygy", "--d", "8", "--r", "9" * INT_DIGITS, "--c1-sq", "1"], 1,
            "Error: NotUlrichCompatible: c1^2 = 1 and rank*d = <int too long to show> "
            "differ by an odd number",
            click.ClickException, NotUlrichCompatible),
        "not-ulrich-huge-r": (
            ["syzygy", "--d", "8", "--r", "9" * INT_DIGITS, "--c1-sq", "0", "--c2", "0"], 1,
            "Error: NotUlrich: seed <NumericClassData too long to show> "
            "fails the numerical Ulrich conditions",
            click.ClickException, NotUlrich),
    } if INT_DIGITS else {}),
    "seed-file-missing": (
        ["check"], 1,
        f"Error: BadSeedFile: cannot read seed file {MISSING_SEED_FILE}: "
        "No such file or directory",
        click.ClickException, BadSeedFile),
    "syzygy-missing-c1-sq": (
        ["syzygy", "--d", "5"], 2,
        "Error: Missing option '--c1-sq'.",
        click.MissingParameter, None),
    "format-xml": (
        ["sequence", "--d", "5", "--format", "xml"], 2,
        "Error: Invalid value for '--format': 'xml' is not one of 'markdown', 'csv', 'json'.",
        click.BadParameter, None),
    "decompose-r-7": (
        ["decompose", "(4;2,1,1,1,1,0)", "--r", "7"], 2,
        "Error: Invalid value for '--r': 7 is not in the range 2<=x<=6.",
        click.BadParameter, None),
    "divisor-wrong-lattice": (
        ["decompose", "(1;0,0)"], 1,
        "Error: ParseError: expected 6 exceptional coordinates, got 2 at position 7",
        click.ClickException, ParseError),
    "seed-file-not-json": (
        ["check"], 1,
        "Error: BadSeedFile: seed file bad-seeds.json is not valid JSON: "
        "Expecting value: line 1 column 1 (char 0)",
        click.ClickException, BadSeedFile),
    "seed-file-not-array": (
        ["check"], 1,
        "Error: BadSeedFile: seed file must contain a JSON array of bundle numerics",
        click.ClickException, BadSeedFile),
    "seed-file-not-object": (
        ["check"], 1, BAD_SEED_ENTRY + "expected an object with keys rank, c1, c2",
        click.ClickException, BadSeedFile),
    "seed-file-missing-c2": (
        ["check"], 1, BAD_SEED_ENTRY + "missing key(s) c2",
        click.ClickException, BadSeedFile),
    "seed-file-bool-rank": (
        ["check"], 1, BAD_SEED_ENTRY + "rank must be an integer, got True",
        click.ClickException, BadSeedFile),
    "seed-file-numeric-c1": (
        ["check"], 1, BAD_SEED_ENTRY + "c1 must be divisor text, got 5",
        click.ClickException, BadSeedFile),
    "seed-file-too-deep": (
        ["check"], 1, "Error: BadSeedFile: seed file bad-seeds.json is nested too deeply to read",
        click.ClickException, BadSeedFile),
    # A rank of 10**6 characters is shown by the first 200 of its repr.
    "seed-file-huge-rank": (
        ["check"], 1, BAD_SEED_ENTRY + "rank must be an integer, got '" + "9" * 199 + "...",
        click.ClickException, BadSeedFile),
}


class TestRefusals:
    @pytest.fixture(autouse=True)
    def seed_file(self, request, tmp_path, monkeypatch):
        # Only check reads it: the row's malformed bad-seeds.json, or a file
        # absent from the empty working directory.
        monkeypatch.chdir(tmp_path)
        content = BAD_SEED_FILES.get(request.node.callspec.params["name"])
        if content is None:
            monkeypatch.setenv("ULRICH_LAB_SEED_FILE", MISSING_SEED_FILE)
        else:
            (tmp_path / "bad-seeds.json").write_text(content)
            monkeypatch.setenv("ULRICH_LAB_SEED_FILE", "bad-seeds.json")

    @pytest.mark.parametrize("name", list(REFUSALS))
    def test_refusal(self, runner, name):
        args, code, error, _, _ = REFUSALS[name]
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [error]

    @pytest.mark.parametrize("name", list(REFUSALS))
    def test_refusal_class(self, name):
        args, _, error, click_class, cause = REFUSALS[name]
        stdout = io.StringIO()
        with redirect_stdout(stdout), pytest.raises(click.ClickException) as info:
            main.main(args, prog_name="ulrich-lab", standalone_mode=False)
        assert stdout.getvalue() == ""
        assert type(info.value) is click_class
        assert type(info.value.__cause__) is (type(None) if cause is None else cause)
        assert f"Error: {info.value.format_message()}" == error


class TestTableMismatch:
    """A wrong golden value shows as a FAIL row, a false all_match and a failing check."""

    @pytest.fixture()
    def wrong_dim(self, monkeypatch):
        rows = list(tables.MODULI_DIM_ROWS)
        rows[3] = replace(rows[3], dim=rows[3].dim + 1)  # d = 5, c1^2 = 20
        monkeypatch.setattr(tables, "MODULI_DIM_ROWS", tuple(rows))

    @pytest.fixture()
    def wrong_partner_c2(self, monkeypatch):
        rows = list(tables.CUBIC_PAIR_ROWS)
        rows[1] = replace(rows[1], partner_c2=rows[1].partner_c2 + 1)  # B+B
        monkeypatch.setattr(tables, "CUBIC_PAIR_ROWS", tuple(rows))

    def test_moduli_command(self, runner, wrong_dim):
        result = runner.invoke(main, ["table-moduli"])
        assert result.exit_code == 1
        assert "| 5 | 20 | 7 | 5 | FAIL |" in result.output
        assert result.output.count("| ok |") == 8
        result = runner.invoke(main, ["table-moduli", "--format", "json"])
        assert result.exit_code == 1
        assert '"all_match": false' in result.output

    def test_moduli_check(self, wrong_dim):
        passed, detail = checks.check_moduli_table()
        assert passed is False
        assert "d=5 c1^2=20" in detail

    def test_pairs_command(self, runner, wrong_partner_c2):
        result = runner.invoke(main, ["table-pairs"])
        assert result.exit_code == 1
        assert "| B+B | (4;1,1,1,1,1,1) | 4 | 6 | 3 | ok | FAIL |" in result.output
        assert result.output.count("| ok | ok |") == 2
        result = runner.invoke(main, ["table-pairs", "--format", "json"])
        assert result.exit_code == 1
        assert '"all_match": false' in result.output

    def test_pairs_check(self, wrong_partner_c2):
        passed, detail = checks.check_cubic_moduli_pairs()
        assert passed is False
        assert "B+B" in detail

    @pytest.fixture()
    def wrong_twist(self, monkeypatch):
        # twist_partner does not recheck its quadratic: the table's twists cell does.
        real = cubic.tensor_line

        def off_by_one(f, line):
            moved = real(f, line)
            return replace(moved, c2=moved.c2 + 1)

        monkeypatch.setattr(cubic, "tensor_line", off_by_one)

    def test_wrong_twist_fails_the_twists_cells(self, runner, wrong_twist):
        result = runner.invoke(main, ["table-pairs"])
        assert result.exit_code == 1
        assert "| A+C | (4;2,1,1,1,1,0) | 3 | 5 | 1 | FAIL | FAIL |" in result.output
        assert result.output.count("| FAIL | FAIL |") == 3
        assert checks.check_cubic_moduli_pairs() == (
            False, "row A+C: got seed c2=3 partner c2=5 dim=1, twists FAIL")


class TestCheckReachesClosedRoutes:
    """``check`` calls the public closed routes at every k: one that is wrong
    only at k = 5 fails the syzygy checks that use it, and no other check."""

    @pytest.mark.parametrize("name,spoil,failing", [
        ("closed_syzygy_chern_numeric", lambda v: replace(v, c2=v.c2 + 1),
         {"syzygy.closed-vs-iterate", "syzygy.table-vs-closed"}),
        ("closed_syzygy_chern", lambda v: (v[0], v[1] + 1), {"syzygy.closed-vs-iterate"}),
        ("rank_two_table_chern", lambda v: replace(v, c2=v.c2 + 1), {"syzygy.table-vs-closed"}),
    ], ids=["numeric", "exact", "table"])
    def test_route_wrong_at_k5_fails_check(self, monkeypatch, name, spoil, failing):
        route = getattr(syzygy, name)

        def wrong_at_5(*args):
            value = route(*args)
            return spoil(value) if args[-1] == 5 else value

        monkeypatch.setattr(syzygy, name, wrong_at_5)
        failed = {r.name: r.detail for r in checks.run_all_checks() if not r.passed}
        assert set(failed) == failing
        assert all(detail.endswith("k=5") for detail in failed.values())


class TestRankTriangle:
    """``syzygy.rank-triangle`` compares three rank routes at every k = -1..50."""

    def test_closed_walk_wrong_at_one_row_fails(self, monkeypatch):
        walk = syzygy._closed_form_ranks

        def wrong_at_17(d, r, k):
            for n, rank in enumerate(walk(d, r, k), start=k):
                yield rank + ((d, r, n) == (6, 2, 17))

        monkeypatch.setattr(syzygy, "_closed_form_ranks", wrong_at_17)
        rank = syzygy.rank_by_recurrence(6, 2, 17)
        assert checks.check_rank_triangle() == (
            False, f"d=6 r=2 k=17: {rank}, {rank + 1}, {rank}")

    def test_rank_closed_form_wrong_at_k50_fails(self, monkeypatch):
        route = syzygy.rank_closed_form

        def wrong_at_50(d, r, k):
            return route(d, r, k) + ((d, r, k) == (6, 2, 50))

        monkeypatch.setattr(syzygy, "rank_closed_form", wrong_at_50)
        rank = syzygy.rank_by_recurrence(6, 2, 50)
        assert checks.check_rank_triangle() == (
            False, f"d=6 r=2 k=50: {rank}, {rank + 1}, {rank}")


class TestTableCounts:
    """Pass details name the number of rows actually checked."""

    @pytest.fixture()
    def cut_tables(self, monkeypatch):
        monkeypatch.setattr(tables, "MODULI_DIM_ROWS", tables.MODULI_DIM_ROWS[:4])
        monkeypatch.setattr(tables, "CUBIC_PAIR_ROWS", tables.CUBIC_PAIR_ROWS[:2])

    def test_full_tables(self):
        assert len(tables.MODULI_DIM_ROWS) == 9 and len(tables.CUBIC_PAIR_ROWS) == 3
        assert checks.check_moduli_table() == (True, "all 9 rows recomputed")
        assert checks.check_cubic_moduli_pairs() == (
            True, "3 rows, partners, 5 random twists each")

    def test_moduli_check(self, cut_tables):
        assert checks.check_moduli_table() == (True, "all 4 rows recomputed")

    def test_pairs_check(self, cut_tables):
        assert checks.check_cubic_moduli_pairs() == (
            True, "2 rows, partners, 5 random twists each")

    def test_table_vs_closed(self, cut_tables):
        # The detail names no count; it covers whatever rows the table holds.
        assert checks.check_table_vs_closed() == (True, "all table rows, k = -1..20")
