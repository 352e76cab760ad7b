"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import ulrich_lab as U  # noqa: E402
import orbits  # noqa: E402
import tracing  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def blocks(name: str, seed: int, n: int = 3) -> list:
    workload = workloads.WORKLOADS[name](seed)
    return [workload.block() for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    assert blocks(name, 5) == blocks(name, 5)
    assert blocks(name, 5) != blocks(name, 6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_blocks_have_the_stated_mix(name):
    cls = workloads.WORKLOADS[name]
    for block in blocks(name, 3):
        kinds = [req.kind for req in block]
        if name == "cli-session":
            assert sum(k.startswith("invalid:") for k in kinds) == len(cls.invalid_classes)
            assert len(kinds) == sum(cls.valid_mix.values()) + len(cls.invalid_classes)
        else:
            mix = {".".join(k) if isinstance(k, tuple) else k: n for k, n in cls.block_mix.items()}
            assert {k: kinds.count(k) for k in set(kinds)} == mix


def test_weyl_frame_draws_follow_the_weights():
    frame = workloads.Frame(["a", "b", "c"], [1, 2, 1], random.Random(1))
    draws = [frame.draw() for _ in range(400)]
    assert abs(draws.count("b") - 200) <= 2
    assert abs(draws.count("a") - 100) <= 2


def test_own_cubic_census_matches_the_library():
    assert set(orbits.cubics()) == {(t.divisor.a, t.divisor.b) for t in U.twisted_cubics()}


@pytest.mark.parametrize("r, target", [(3, (7, (2, 2, 2, 2, 2, 2))), (2, (4, (0, 1, 1, 1, 1, 2))),
                                       (3, (9, (3, 3, 3, 3, 3, 3)))])
def test_orbit_table_counts_match_the_library(r, target):
    row = workloads.CubicSearch.row_of(U.DivisorClass(*target), r)
    assert row.ordered == len(U.decompose_stable_sum(U.DivisorClass(*target), r))
    assert row.unordered == len(U.decompose_stable_sum(U.DivisorClass(*target), r, unordered=True))


def test_orbit_table_weights_cover_every_tuple():
    table = orbits.load_table()
    assert sum(x["weight"] for x in table[2]) == 72 ** 2
    assert sum(x["weight"] for x in table[3]) == 72 ** 3


def measured(workload, blocks: list) -> dict:
    with worker.SpeedMeter() as meter:
        return worker.run_blocks(workload, blocks, meter)


def run_one_block(name: str, seed: int = 2) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    return measured(workload, [workload.block()])


@pytest.mark.parametrize("name", ["syzygy-deep", "cubic-search"])
def test_correct_library_gives_no_failures(name):
    assert run_one_block(name)["failures"] == []


def test_wrong_rank_is_counted_as_failed(monkeypatch):
    real = U.rank_closed_form
    monkeypatch.setattr(U, "rank_closed_form", lambda d, r, k: real(d, r, k) + 1)
    run = run_one_block("syzygy-deep")
    assert len(run["failures"]) == len(run["requests"])
    assert all(kind == "wrong" and "closed rank form" in msg for kind, _, msg in run["failures"])


def test_missing_decomposition_is_counted_as_failed(monkeypatch):
    real = U.decompose_stable_sum
    monkeypatch.setattr(U, "decompose_stable_sum", lambda t, r, unordered=False:
                        real(t, r, unordered)[1:])
    run = run_one_block("cubic-search")
    decomposable = [req for req in run["requests"] if req.params[2].ordered > 0]
    assert decomposable and len(run["failures"]) == len(decomposable)


def test_exception_is_counted_and_the_run_continues(monkeypatch):
    def boom(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(U, "iterate_syzygy", boom)
    run = run_one_block("syzygy-deep")
    assert len(run["failures"]) == len(run["requests"]) > 1
    assert all("unexpected ZeroDivisionError" in msg for _, _, msg in run["failures"])


def test_cli_refusals_and_defects_are_classified():
    workload = workloads.CliSession(4)
    invalid = [req for req in workload.block() if req.kind.startswith("invalid:")]
    run = measured(workload, [invalid])
    failed = {req_kind for _, req_kind, _ in run["failures"]}
    # The three malformed-divisor forms the parser does not yet refuse cleanly.
    assert failed == {"invalid:divisor-superscript", "invalid:divisor-4301-digits",
                      "invalid:divisor-non-ascii-digit"}
    assert all(kind == "refusal" for kind, _, _ in run["failures"])
    assert workload.errors["BadParameter"] == 4
    assert workload.errors["OutOfTheoremScope"] == 1 and workload.errors["ParseError"] == 1


def test_cli_changed_output_is_counted_as_failed(monkeypatch):
    workload = workloads.CliSession(4)
    valid = [req for req in workload.block() if req.kind == "cubics"]
    assert measured(workload, [valid])["failures"] == []
    real = workloads.invoke
    monkeypatch.setattr(workloads, "invoke", lambda args: workloads.CliOutcome(
        0, real(args).stdout.replace("(1;0,0,0,0,0,0)", "(1;0,0,0,0,0,1)")))
    run = measured(workload, [valid])
    assert len(run["failures"]) == len(valid)


def test_verdict_is_incorrect_after_a_wrong_answer():
    result = {"wrong": 1, "attempted": 10, "failed": 1, "metrics": {}}
    assert bench.verdict(result)["correct"] is False
    assert bench.verdict({**result, "wrong": 0})["correct"] is True


def test_tail_is_the_sample_with_ten_beyond_it():
    latencies = [i / 1000 for i in range(100, 0, -1)]
    got = worker.timings(latencies, elapsed=2.0, correct=90)
    assert got == pytest.approx({"throughput_rps": 45.0, "latency_p50_ms": 50.5,
                                 "latency_tail_ms": 90.0})


def test_tracer_catches_cross_layer_calls_and_restores_bindings():
    import ulrich_lab.syzygy as syzygy_module

    original = syzygy_module.euler_char
    surface = U.make_surface(5)
    seed = U.NumericClassData(2, 16, 10, U.ulrich_c2(2, 16, surface))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert syzygy_module.euler_char is not original
        with tracer.span("bench.request"):
            U.iterate_syzygy(seed, surface, 3)
    finally:
        tracer.uninstall()
    assert syzygy_module.euler_char is original
    spans = tracer.spans
    names = [s[0] for s in spans]
    iterate = names.index("syzygy.iterate_syzygy")
    children = {s[0] for s in spans if s[3] == iterate}
    assert {"chern.euler_char", "syzygy.rank_by_recurrence", "ulrich.is_ulrich_candidate"} <= children
    root = spans[0]
    assert root[0] == "bench.request" and root[3] == -1
    assert all(s[5] >= 0 for s in spans)
    assert sum(s[5] for s in spans) == pytest.approx(root[2] - root[1])
