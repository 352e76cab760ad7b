"""End-to-end runs of every subcommand through the click test runner."""

from __future__ import annotations

import gc
import hashlib
import io
import json
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

    def test_json_matches_library(self, runner):
        result = runner.invoke(
            main, ["syzygy", "--d", "5", "--c1-sq", "16", "--k-max", "2", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["extrapolated"] is False
        trace = iterate_syzygy(NumericClassData(2, 16, 10, 5), make_surface(5), 2)
        assert payload["entries"] == trace.to_dict()["entries"]
        assert len(payload["entries"]) == 4

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
    def test_all_checks_pass(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "picard.signature" in result.output
        assert "cubic.moduli-pairs" in result.output

    def test_extra_seed_file(self, runner, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4}]))
        result = runner.invoke(
            main, ["check", "--format", "json"], env={"ULRICH_LAB_SEED_FILE": str(path)}
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["extra_seeds"] == 1
        assert payload["passed"] is True

    def test_bad_extra_seed_fails_cleanly(self, runner, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 5}]))
        result = runner.invoke(
            main, ["check"], env={"ULRICH_LAB_SEED_FILE": str(path)}
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output

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
    def test_deterministic_bytes(self, runner):
        first = runner.invoke(main, ["table-pairs", "--format", "json"]).output
        second = runner.invoke(main, ["table-pairs", "--format", "json"]).output
        assert first == second

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

    def test_help_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("sequence", "syzygy", "table-moduli", "table-pairs",
                     "cubics", "decompose", "check"):
            assert name in result.output


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
        # and once more with a failing seed file: that report is written
        # before its SystemExit(1).  One collection for all the calls.
        monkeypatch.setattr(checks, "DEFAULT_CASES", 10)  # check's random cases
        calls = [[*command, "--format", fmt]
                 for command in (["sequence", "--d", "5", "--k-max", "2"],
                                 ["syzygy", "--d", "4", "--c1-sq", "12", "--k-max", "2"],
                                 ["table-moduli"], ["table-pairs"], ["cubics"],
                                 ["decompose", "(4;2,1,1,1,1,0)"])
                 for fmt in ("markdown", "csv", "json")]
        calls.append(["check", "--format", "json"])
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


# Exact bytes of the published tables and of the self-check report, captured
# from a known-good build.  Any change to a row, a cell or the rendering shows
# up here.
TABLE_MODULI_MARKDOWN = """\
| d | c1_sq | c2 | dim | match |
| --- | --- | --- | --- | --- |
| 4 | 12 | 4 | 1 | ok |
| 4 | 16 | 6 | 5 | ok |
| 5 | 16 | 5 | 1 | ok |
| 5 | 20 | 7 | 5 | ok |
| 6 | 20 | 6 | 1 | ok |
| 6 | 24 | 8 | 5 | ok |
| 7 | 24 | 7 | 1 | ok |
| 7 | 26 | 8 | 3 | ok |
| 7 | 28 | 9 | 5 | ok |
"""

TABLE_MODULI_CSV = """\
d,c1_sq,c2,dim,match
4,12,4,1,ok
4,16,6,5,ok
5,16,5,1,ok
5,20,7,5,ok
6,20,6,1,ok
6,24,8,5,ok
7,24,7,1,ok
7,26,8,3,ok
7,28,9,5,ok
"""

TABLE_MODULI_JSON = """\
{
  "rows": [
    {
      "d": 4,
      "c1_sq": 12,
      "c2": 4,
      "dim": 1,
      "match": true
    },
    {
      "d": 4,
      "c1_sq": 16,
      "c2": 6,
      "dim": 5,
      "match": true
    },
    {
      "d": 5,
      "c1_sq": 16,
      "c2": 5,
      "dim": 1,
      "match": true
    },
    {
      "d": 5,
      "c1_sq": 20,
      "c2": 7,
      "dim": 5,
      "match": true
    },
    {
      "d": 6,
      "c1_sq": 20,
      "c2": 6,
      "dim": 1,
      "match": true
    },
    {
      "d": 6,
      "c1_sq": 24,
      "c2": 8,
      "dim": 5,
      "match": true
    },
    {
      "d": 7,
      "c1_sq": 24,
      "c2": 7,
      "dim": 1,
      "match": true
    },
    {
      "d": 7,
      "c1_sq": 26,
      "c2": 8,
      "dim": 3,
      "match": true
    },
    {
      "d": 7,
      "c1_sq": 28,
      "c2": 9,
      "dim": 5,
      "match": true
    }
  ],
  "all_match": true
}
"""

TABLE_PAIRS_MARKDOWN = """\
| parts | seed_c1 | seed_c2 | partner_c2 | dim | twists | match |
| --- | --- | --- | --- | --- | --- | --- |
| A+C | (4;2,1,1,1,1,0) | 3 | 5 | 1 | ok | ok |
| B+B | (4;1,1,1,1,1,1) | 4 | 6 | 3 | ok | ok |
| A+E | (6;2,2,2,2,2,2) | 5 | 7 | 5 | ok | ok |
"""

TABLE_PAIRS_CSV = """\
parts,seed_c1,seed_c2,partner_c2,dim,twists,match
A+C,"(4;2,1,1,1,1,0)",3,5,1,ok,ok
B+B,"(4;1,1,1,1,1,1)",4,6,3,ok,ok
A+E,"(6;2,2,2,2,2,2)",5,7,5,ok,ok
"""

TABLE_PAIRS_JSON = """\
{
  "rows": [
    {
      "parts": "A+C",
      "seed_c1": "(4;2,1,1,1,1,0)",
      "seed_c2": 3,
      "partner_c2": 5,
      "dim": 1,
      "twists_match": true,
      "match": true
    },
    {
      "parts": "B+B",
      "seed_c1": "(4;1,1,1,1,1,1)",
      "seed_c2": 4,
      "partner_c2": 6,
      "dim": 3,
      "twists_match": true,
      "match": true
    },
    {
      "parts": "A+E",
      "seed_c1": "(6;2,2,2,2,2,2)",
      "seed_c2": 5,
      "partner_c2": 7,
      "dim": 5,
      "twists_match": true,
      "match": true
    }
  ],
  "all_match": true
}
"""

CHECK_CSV = """\
check,status,detail
picard.signature,PASS,"L^2=1, E_i.E_j=-delta, K^2=H^2=d on d=3, d=4, d=5, d=6, d=7, d=8"
picard.bilinearity,PASS,1000 random triples
picard.permutation-pairing,PASS,1000 random cases
picard.parser-roundtrip,PASS,1000 random classes
chern.tensor-commutative,PASS,1000 random pairs
chern.tensor-associative,PASS,1000 random triples
chern.sum-permutation-invariant,PASS,1000 random families
chern.chi-additive,PASS,1000 random pairs
chern.discriminant-twist-invariant,PASS,1000 random twists
ulrich.candidate-permutation-invariant,PASS,500 random cases
syzygy.rank-triangle,PASS,"recurrence = closed form = iteration, d=4..8, r=1..5, k=-1..50"
syzygy.rank-monotone,PASS,"strictly increasing, d=4..8, r=1..5, k<=39"
syzygy.drift-constant,PASS,32 seeds
syzygy.delta-growth,PASS,Delta(S_k) strictly increasing for k >= 0
syzygy.closed-vs-iterate,PASS,"32 seeds, k <= 12"
syzygy.table-vs-closed,PASS,"all table rows, k = -1..20"
ulrich.thresholds,PASS,"genus 1, Butler, coprime, Koszul iff d>=4, H.(K+F)<0"
ulrich.candidates,PASS,32 seeds
ulrich.moduli-table,PASS,all 9 rows recomputed
cubic.census,PASS,"72 classes, orbits 1/20/30/20/1, T^2=1, T.H=3"
cubic.chi-closed-vs-oracle,PASS,all 72^2 ordered pairs
cubic.decompositions,PASS,"table pairs found, all tuples revalidate"
cubic.moduli-pairs,PASS,"3 rows, partners, 5 random twists each"
"""

CHECK_MARKDOWN = """\
| check | status | detail |
| --- | --- | --- |
| picard.signature | PASS | L^2=1, E_i.E_j=-delta, K^2=H^2=d on d=3, d=4, d=5, d=6, d=7, d=8 |
| picard.bilinearity | PASS | 1000 random triples |
| picard.permutation-pairing | PASS | 1000 random cases |
| picard.parser-roundtrip | PASS | 1000 random classes |
| chern.tensor-commutative | PASS | 1000 random pairs |
| chern.tensor-associative | PASS | 1000 random triples |
| chern.sum-permutation-invariant | PASS | 1000 random families |
| chern.chi-additive | PASS | 1000 random pairs |
| chern.discriminant-twist-invariant | PASS | 1000 random twists |
| ulrich.candidate-permutation-invariant | PASS | 500 random cases |
| syzygy.rank-triangle | PASS | recurrence = closed form = iteration, d=4..8, r=1..5, k=-1..50 |
| syzygy.rank-monotone | PASS | strictly increasing, d=4..8, r=1..5, k<=39 |
| syzygy.drift-constant | PASS | 32 seeds |
| syzygy.delta-growth | PASS | Delta(S_k) strictly increasing for k >= 0 |
| syzygy.closed-vs-iterate | PASS | 32 seeds, k <= 12 |
| syzygy.table-vs-closed | PASS | all table rows, k = -1..20 |
| ulrich.thresholds | PASS | genus 1, Butler, coprime, Koszul iff d>=4, H.(K+F)<0 |
| ulrich.candidates | PASS | 32 seeds |
| ulrich.moduli-table | PASS | all 9 rows recomputed |
| cubic.census | PASS | 72 classes, orbits 1/20/30/20/1, T^2=1, T.H=3 |
| cubic.chi-closed-vs-oracle | PASS | all 72^2 ordered pairs |
| cubic.decompositions | PASS | table pairs found, all tuples revalidate |
| cubic.moduli-pairs | PASS | 3 rows, partners, 5 random twists each |
"""


# The --help page of the group and of each subcommand, at a fixed width.
# These pin the option order, the help texts and the defaults of every
# declaration.
HELP = {
    "": """\
Usage: main [OPTIONS] COMMAND [ARGS]...

  Exact Ulrich-bundle and syzygy-bundle numerics on del Pezzo surfaces.

Options:
  --help  Show this message and exit.

Commands:
  check         Run every module invariant and report one pass/fail line each.
  cubics        List the 72 twisted cubic classes with their orbit tags.
  decompose     Stable-sum decompositions of TARGET, e.g.
  sequence      Syzygy ranks N_k by recurrence and by closed form, with a...
  syzygy        Trace of the syzygy-and-twist iteration from an Ulrich seed.
  table-moduli  Rank-2 moduli-dimension table on degrees 4..7, recomputed...
  table-pairs   Cubic-surface pair table: rank-2 seeds, rank-4 partners,...
""",
    "sequence": """\
Usage: main sequence [OPTIONS]

  Syzygy ranks N_k by recurrence and by closed form, with a diff.

Options:
  --d INTEGER RANGE             Surface degree (closed rank form needs d >= 4).
                                [4<=x<=8; required]
  --r INTEGER RANGE             Seed rank.  [default: 2; x>=1]
  --k-max INTEGER RANGE         [default: 10; 0<=x<=200]
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "syzygy": """\
Usage: main syzygy [OPTIONS]

  Trace of the syzygy-and-twist iteration from an Ulrich seed.

Options:
  --d INTEGER RANGE             Surface degree.  [3<=x<=8; required]
  --r INTEGER RANGE             Seed rank.  [default: 2; x>=1]
  --c1-sq INTEGER               c1^2 of the seed.  [required]
  --c2 INTEGER                  c2 of the seed; defaults to the unique Ulrich-
                                compatible value.
  --k-max INTEGER RANGE         [default: 5; -1<=x<=200]
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "table-moduli": """\
Usage: main table-moduli [OPTIONS]

  Rank-2 moduli-dimension table on degrees 4..7, recomputed and diffed.

Options:
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "table-pairs": """\
Usage: main table-pairs [OPTIONS]

  Cubic-surface pair table: rank-2 seeds, rank-4 partners, twist checks.

Options:
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "cubics": """\
Usage: main cubics [OPTIONS]

  List the 72 twisted cubic classes with their orbit tags.

Options:
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "decompose": """\
Usage: main decompose [OPTIONS] TARGET

  Stable-sum decompositions of TARGET, e.g. "(4;2,1,1,1,1,0)".

Options:
  --r INTEGER RANGE             Number of twisted cubic parts.  [default: 2;
                                2<=x<=6]
  --unordered                   Collapse to one representative ordering per
                                multiset.
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
    "check": """\
Usage: main check [OPTIONS]

  Run every module invariant and report one pass/fail line each.

Options:
  --out FILE                    Write output to a file instead of stdout.
  --format [markdown|csv|json]  Output format.  [default: markdown]
  --help                        Show this message and exit.
""",
}

# sha256 and length of outputs too long to inline: `syzygy` on every
# moduli-table row (its c2 given), on the rH seeds of degree 8 (r = 1, 2, 3)
# and on 3H of degree 5 (the Ulrich c2 by default), and `sequence` at r = 2,
# all at k_max = 200, and the JSON report of `check`.
DIGESTS = {
    "syzygy --d 4 --c1-sq 12 --c2 4 --k-max 200 --format markdown":
        ("2498eb553d053926769cf3a69938efb7742cf54383d637183ac29bb220b58e75", 9937),
    "syzygy --d 4 --c1-sq 12 --c2 4 --k-max 200 --format csv":
        ("5c9d992f3f8d259f12eea870c1869938f17aa979f93dc8ca26a64959dcad5d88", 6645),
    "syzygy --d 4 --c1-sq 12 --c2 4 --k-max 200 --format json":
        ("c50ca92eb3d8fcb07c56fcfa2f0275d67eff8d639cc9fdf53dca74fdcb7d06ae", 30783),
    "syzygy --d 4 --c1-sq 16 --c2 6 --k-max 200 --format markdown":
        ("a3aed3b9ef9f834017a9b2fd45c3db3efa581c72a4c0235eee46c7662190b745", 9938),
    "syzygy --d 4 --c1-sq 16 --c2 6 --k-max 200 --format csv":
        ("8f4cda1a79757755760be35eb43a17094f9da30d47f499eb9da46f2c72ee1d0c", 6646),
    "syzygy --d 4 --c1-sq 16 --c2 6 --k-max 200 --format json":
        ("14fcb2408a8fe8386db0ce8c1b2631ec1c596a9a1919eeac91952f76b8c96c9b", 30784),
    "syzygy --d 5 --c1-sq 16 --c2 5 --k-max 200 --format markdown":
        ("e2f5773bc9eb76a60864fc0f2b3d2c50b52477ebd925c18d5f201e23cfeffe17", 74870),
    "syzygy --d 5 --c1-sq 16 --c2 5 --k-max 200 --format csv":
        ("7499959065a995f0218a08c9307f3fc06345cb08d392797ce5d60e57915644e4", 71578),
    "syzygy --d 5 --c1-sq 16 --c2 5 --k-max 200 --format json":
        ("c7f81119ac2552dfb8841a5b907a734ecbda9427b7ebd463d2509bd607a008d3", 95717),
    "syzygy --d 5 --c1-sq 20 --c2 7 --k-max 200 --format markdown":
        ("a67015b8852827ba2d11d64e5b336d5b30281da30933f35bfa64d58e8156290a", 74870),
    "syzygy --d 5 --c1-sq 20 --c2 7 --k-max 200 --format csv":
        ("351df2dda0bbe56dd32addcd200f5d066f0ecd47579a8cd8887c947386083440", 71578),
    "syzygy --d 5 --c1-sq 20 --c2 7 --k-max 200 --format json":
        ("2a9b62d8bc395020b917349be2e6f1adb3b3e0ae7691d99cbe32f1cb2e6dbda3", 95717),
    "syzygy --d 6 --c1-sq 20 --c2 6 --k-max 200 --format markdown":
        ("3d8428ec4258e9817f0ad4dbe79ecc38347d0f718e3610cb8d53376545759b7b", 99856),
    "syzygy --d 6 --c1-sq 20 --c2 6 --k-max 200 --format csv":
        ("d07378c21a5a10f25f54ee20201341179b4a8bd668b8b6711e4a92d0e2f22644", 96564),
    "syzygy --d 6 --c1-sq 20 --c2 6 --k-max 200 --format json":
        ("bd7182b544343b08bcb9903adacd936220db9fb49149e9094cb4e1fcd5e9536b", 120703),
    "syzygy --d 6 --c1-sq 24 --c2 8 --k-max 200 --format markdown":
        ("f07421c7d7ec274a2a2a2cc45f47e32dea4e10eda9fd224fc5b745c6fcf1b2f3", 99856),
    "syzygy --d 6 --c1-sq 24 --c2 8 --k-max 200 --format csv":
        ("cf5e87bd479320b7b637b0636724ac0fc614eab5d34eb8b58b281090507961d5", 96564),
    "syzygy --d 6 --c1-sq 24 --c2 8 --k-max 200 --format json":
        ("0c80462dd640a2ba8579baa21be213c997170ba419735e43ab421cd74ced5c5c", 120703),
    "syzygy --d 7 --c1-sq 24 --c2 7 --k-max 200 --format markdown":
        ("721eb70ed7eb9fe74fe3932802edb0d2620f42b883238fc41234ef9f480a19a2", 117474),
    "syzygy --d 7 --c1-sq 24 --c2 7 --k-max 200 --format csv":
        ("7e691882ac2710a28b48902806f906a8f1b442626141d618ae33f96b4738c4b2", 114182),
    "syzygy --d 7 --c1-sq 24 --c2 7 --k-max 200 --format json":
        ("28cf757a4e723b111c9e73a670c48fb2098694c1236a38e0f24078b340bdd9a4", 138321),
    "syzygy --d 7 --c1-sq 26 --c2 8 --k-max 200 --format markdown":
        ("a235d17b5d395182998194653333769a2090799167c0e9262247231b3bf66eed", 117474),
    "syzygy --d 7 --c1-sq 26 --c2 8 --k-max 200 --format csv":
        ("ccc027e7af1d7d91e7b08840abc7d23eeacdc0e7080a068a97a8c2b4cde51b7f", 114182),
    "syzygy --d 7 --c1-sq 26 --c2 8 --k-max 200 --format json":
        ("c1d7b40fb892d861427ac49efd94cbe8fadc26c0a42b33525be534b781bdfef7", 138321),
    "syzygy --d 7 --c1-sq 28 --c2 9 --k-max 200 --format markdown":
        ("9acef832e32440b1225f5a8bc9dcccc43d35614d66c31ce459f7f29141863a35", 117474),
    "syzygy --d 7 --c1-sq 28 --c2 9 --k-max 200 --format csv":
        ("666da12a833b6752824d61fa5a4dc9cf4be3805a78afde6f1f0d649afe84cdbb", 114182),
    "syzygy --d 7 --c1-sq 28 --c2 9 --k-max 200 --format json":
        ("5916d4e6f0ddf1b7591ee845bf3174ac2649770d36abfe429ceff2b3c63f3690", 138321),
    "syzygy --d 8 --r 1 --c1-sq 8 --k-max 200 --format markdown":
        ("4a9d8c05fffb08e3ada5ecc6d2871f9fa04df57cee37482f68754b1ddd80b200", 130918),
    "syzygy --d 8 --r 1 --c1-sq 8 --k-max 200 --format csv":
        ("afc0a807194cf5fc1b163d504b993cbab9a30909d561ee7dcc9d83995e5b5327", 127534),
    "syzygy --d 8 --r 1 --c1-sq 8 --k-max 200 --format json":
        ("06282740229f43bf34a0486f65b4d7e35e5547417466b01130623478afe162b0", 151670),
    "syzygy --d 8 --r 2 --c1-sq 32 --k-max 200 --format markdown":
        ("2ac6c2adcfc9190b8d1bd20302aa2841fd63ee9d26fb5b56b138182a57966dd2", 131405),
    "syzygy --d 8 --r 2 --c1-sq 32 --k-max 200 --format csv":
        ("1da1f5ad500c877402fd431f55575ad9d2c9e48e6abb27e18a3f0f1a34b4f811", 128021),
    "syzygy --d 8 --r 2 --c1-sq 32 --k-max 200 --format json":
        ("d7e99a6cb6396fbb83daf963bfc08e091ab3d1fc69324389121d2106f259d6cb", 152160),
    "syzygy --d 8 --r 3 --c1-sq 72 --k-max 200 --format markdown":
        ("b763df38c9e5941308761a4a8deaa1bb90ee6c5b21a6aaec5be9ec3e9efda345", 131891),
    "syzygy --d 8 --r 3 --c1-sq 72 --k-max 200 --format csv":
        ("d8cb85611c0b6129b30c00b1c1a47df29b3348a9d1da2c5abc6d13204068fb90", 128507),
    "syzygy --d 8 --r 3 --c1-sq 72 --k-max 200 --format json":
        ("419e764799bab2d37d651bf88c402d2d9255feb39192eef6d7a996487f18d6d0", 152646),
    "syzygy --d 5 --r 3 --c1-sq 45 --k-max 200 --format markdown":
        ("ff782f4ffe3eb5d5e93a323bc042fa8c72cd452429ca3b1071ca54f0cf5431a0", 75359),
    "syzygy --d 5 --r 3 --c1-sq 45 --k-max 200 --format csv":
        ("ed8e8d24b111921a494223e7187fe9eecc98f8e8a370ec87641918ab3d415219", 72067),
    "syzygy --d 5 --r 3 --c1-sq 45 --k-max 200 --format json":
        ("bc18ff3a7c5d286997c46f1b9ee6f09519c70d46be7e2bfcaebc3cd6b029f616", 96207),
    "sequence --d 5 --k-max 200":
        ("62662119f5cf337ee61045bae91c50309f785ff602017baf6b69c17784587260", 21152),
    "sequence --d 6 --k-max 200":
        ("a48e9a934dc95b1bb28edaf57db5af3a9fd84603c27807166fbe40a85ed91802", 27380),
    "sequence --d 7 --k-max 200":
        ("637cd1d1b7b87dded7e8ec82ca46b4a3ac891c5a63b78aaa9f819b6fa7589b0b", 31768),
    "sequence --d 8 --k-max 200":
        ("5b4a42126c5de8b12556ac3d7ff393da3a4ff1d13f5aaa9a1ee42ed4d6cded6b", 35306),
    "check --format json":
        ("53289fd4596b5de63bf9d46f6619db7a2eb755fcdef96f2e0d4aca6861a450e3", 2871),
    "cubics --format markdown":
        ("2593ab17688ec0290ca5f4f214b4966e278b3b19607746d4203f1b40c7db27a0", 1769),
    "cubics --format csv":
        ("ee952b2aa2e748d809707880e384d22b856115f2da57e0a1b951276fc730fc91", 1451),
    "cubics --format json":
        ("08af86d1029723a7efef1695d256b9fb024f88d45b6eb26de77e14787a39e9cd", 4717),
    "decompose (4;2,1,1,1,1,0) --format markdown":
        ("e617af6ef4a9e0ed8255ee10905715539072f0cce0194206fb5ffbcf5edeaf73", 369),
    "decompose (4;2,1,1,1,1,0) --format csv":
        ("8a23a003010699d4b162af79af1501551ac1ae69771e46e18eb7723e8fea7eb8", 308),
    "decompose (4;2,1,1,1,1,0) --format json":
        ("aea148f8846d877a03bc46d36dbca2b1bb4ed8aacfc7970625157b917ac5009c", 572),
    "decompose (4;2,1,1,1,1,0) --unordered --format markdown":
        ("1a1cb0e314a3f3094d0715b9ad7a1da4026eb8d5d2921071ac49eaf88908c2b8", 205),
    "decompose (4;2,1,1,1,1,0) --unordered --format csv":
        ("3d063dcb1711bf434917f2771532e916079764224551a5c2658009d7df30b5ea", 160),
    "decompose (4;2,1,1,1,1,0) --unordered --format json":
        ("9e25b428fa060db8526a91321165aaced5520fbcd0f5fa7ac5b7a47d373ac949", 324),
    "decompose (9;4,3,3,3,3,2) --r 3 --format markdown":
        ("8f849ffaf87f81b5cafd9740ae1a05fb0beeeb5d2d4629f1cbe2f97a800deba3", 42653),
    "decompose (9;4,3,3,3,3,2) --r 3 --format csv":
        ("7367a5a093230ce81839da0301be3ea20e17014beddc11aa4e330c46a3a24aa3", 39774),
    "decompose (9;4,3,3,3,3,2) --r 3 --format json":
        ("b0cf2da55b7f5143fcd908200a90d81c48c325e3f4b65fde6942c91ee5aa6c1c", 62022),
    "decompose (9;4,3,3,3,3,2) --r 3 --unordered --format markdown":
        ("c16ec1aba977dfc2337ba1f6e72e1be5e7e52c95e0033a6e7a73a970a24f4625", 7493),
    "decompose (9;4,3,3,3,3,2) --r 3 --unordered --format csv":
        ("4029b554ea1dce7d353e62ff4057c69b4734461c7e3155b45ec79edbbb63741a", 6958),
    "decompose (9;4,3,3,3,3,2) --r 3 --unordered --format json":
        ("0a1708493fba2e269ceefee8a9a73fc8860f1e42ea1ea980e421f4ec5002b1fc", 11040),
    "decompose (2;0,0,0,0,0,0)":
        ("eb0dd986a6706694ac7ef306a3a1cfe3ac31399c088e14d5eecbd3607e5e2749", 41),
    "decompose (12;4,4,4,4,4,4) --r 4 --format markdown":
        ("1c024be724669378b470f061a45b6bf0be015c15dcffc2674129adade63dbd4e", 4038791),
}


class TestExactBytes:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["table-moduli"], TABLE_MODULI_MARKDOWN),
            (["table-moduli", "--format", "csv"], TABLE_MODULI_CSV),
            (["table-moduli", "--format", "json"], TABLE_MODULI_JSON),
            (["table-pairs"], TABLE_PAIRS_MARKDOWN),
            (["table-pairs", "--format", "csv"], TABLE_PAIRS_CSV),
            (["table-pairs", "--format", "json"], TABLE_PAIRS_JSON),
            (["check", "--format", "csv"], CHECK_CSV),
            (["check"], CHECK_MARKDOWN),
        ],
        ids=["moduli-markdown", "moduli-csv", "moduli-json", "pairs-markdown",
             "pairs-csv", "pairs-json", "check-csv", "check-markdown"],
    )
    def test_output_bytes(self, runner, args, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == expected

    @pytest.mark.parametrize("args", list(DIGESTS))
    def test_output_digest(self, runner, args):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 0
        data = result.output.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == DIGESTS[args]

    def test_check_with_seed_file_digest(self, runner, tmp_path):
        # One good extra seed: three details count 33 seeds, extra_seeds is 1.
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4}]))
        result = runner.invoke(main, ["check", "--format", "json"],
                               env={"ULRICH_LAB_SEED_FILE": str(path)})
        assert result.exit_code == 0
        data = result.output.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            "a2122ab695d43f4e0c89a0d21d18be3ed536e8af46eb1a6aff46ce20ea97b6ec", 2871)

    @pytest.mark.parametrize("args,row,digest", [
        (["check"], "| {} | FAIL | {}",
         ("7991d12d36b5f1a12690f4fe8261641650c07ff330ed609413540d106d0ef8ea", 1940)),
        (["check", "--format", "json"], '"name": "{}",\n      "passed": false,\n      "detail": "{}',
         ("07857d1642286317bec5e51593312a70c6dc4c22a133cae1d11c3c072c3022b0", 3268)),
    ], ids=["markdown", "json"])
    def test_check_with_failing_seed_file_digest(self, runner, tmp_path, args, row, digest):
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
        data = result.output.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == digest

    @pytest.mark.parametrize("name", list(HELP), ids=[name or "group" for name in HELP])
    def test_help_bytes(self, runner, name):
        args = [name, "--help"] if name else ["--help"]
        result = runner.invoke(main, args, terminal_width=80)
        assert result.exit_code == 0
        assert result.output == HELP[name]


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
