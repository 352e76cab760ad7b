"""End-to-end runs of every subcommand through the click test runner."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from ulrich_lab import (
    decompose_stable_sum,
    decomposition_to_dict,
    iterate_syzygy,
    make_surface,
    parse_divisor,
)
from ulrich_lab.chern import NumericClassData
from ulrich_lab.cli import main


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
        ],
        ids=["missing-file", "not-json", "not-array", "missing-key", "string-rank",
             "float-c2", "bool-c2", "numeric-c1", "bad-divisor", "not-object"],
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
