"""Command line interface.

Every subcommand recomputes its numbers from the library and, where a
published table exists, diffs against the embedded golden rows.  Output
is deterministic byte for byte for a fixed invocation; the exit code is
0 exactly when every emitted check passed.

Formats: ``markdown`` (default), ``csv``, ``json``.  ``--out PATH``
writes to a file instead of stdout.  The ``check`` subcommand honors the
``ULRICH_LAB_SEED_FILE`` environment variable, a JSON array of bundle
numerics objects to add to the seed-driven property checks.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass

import click

from . import checks, chern, cubic, syzygy, tables, ulrich
from .chern import NumericClassData
from .errors import UlrichLabError
from .picard import make_surface, parse_divisor

FORMATS = ("markdown", "csv", "json")
SEED_FILE_ENV = "ULRICH_LAB_SEED_FILE"
MAX_K = 200


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs of one CLI invocation."""

    command: str
    d: int = 3
    r: int = 2
    k_max: int = 10
    c1_sq: int | None = None
    c2: int | None = None
    target: str | None = None
    output_format: str = "markdown"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.k_max > MAX_K:
            raise ValueError(f"k_max capped at {MAX_K}, got {self.k_max}")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")


@dataclass(frozen=True)
class CommandOutput:
    payload: dict
    headers: list[str]
    rows: list[list]
    notes: list[str]
    ok: bool


def _render(out: CommandOutput, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(out.payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(out.headers)
        writer.writerows([[str(cell) for cell in row] for row in out.rows])
        return buffer.getvalue()
    lines = ["| " + " | ".join(out.headers) + " |",
             "| " + " | ".join("---" for _ in out.headers) + " |"]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in out.rows)
    lines.extend(out.notes)
    return "\n".join(lines) + "\n"


def _emit(out: CommandOutput, fmt: str, path: str | None) -> None:
    text = _render(out, fmt)
    if path is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise click.ClickException(f"cannot write {path}: {exc.strerror}") from exc
    if not out.ok:
        raise SystemExit(1)


def _extrapolation_notes(d: int) -> list[str]:
    if d == 8:
        return ["extrapolated: degree 8 lies outside the tabulated range; "
                "the formulas are applied beyond it"]
    return []


def cmd_sequence(cfg: RunConfig) -> CommandOutput:
    rows = []
    ok = True
    for k in range(cfg.k_max + 1):
        by_rec = syzygy.rank_by_recurrence(cfg.d, cfg.r, k)
        by_closed = syzygy.rank_closed_form(cfg.d, cfg.r, k)
        match = by_rec == by_closed
        ok &= match
        rows.append([k, by_rec, by_closed, "ok" if match else "FAIL"])
    payload = {
        "d": cfg.d,
        "r": cfg.r,
        "extrapolated": cfg.d == 8,
        "rows": [
            {"k": k, "recurrence": rec, "closed_form": clo, "match": match == "ok"}
            for k, rec, clo, match in rows
        ],
    }
    return CommandOutput(payload, ["k", "recurrence", "closed_form", "match"],
                         rows, _extrapolation_notes(cfg.d), ok)


def cmd_syzygy(cfg: RunConfig) -> CommandOutput:
    surface = make_surface(cfg.d)
    assert cfg.c1_sq is not None
    c2 = cfg.c2 if cfg.c2 is not None else ulrich.ulrich_c2(cfg.r, cfg.c1_sq, surface)
    seed = NumericClassData(cfg.r, cfg.c1_sq, cfg.r * cfg.d, c2)
    trace = syzygy.iterate_syzygy(seed, surface, cfg.k_max)
    payload = trace.to_dict()
    payload["extrapolated"] = cfg.d == 8
    rows = [
        [e["k"], e["rank"], e["c1_sq"], e["c1_dot_H"], e["c2"], e["delta"], e["drift"]]
        for e in payload["entries"]
    ]
    headers = ["k", "rank", "c1_sq", "c1_dot_H", "c2", "delta", "drift"]
    return CommandOutput(payload, headers, rows, _extrapolation_notes(cfg.d), True)


def cmd_table_moduli(_cfg: RunConfig) -> CommandOutput:
    rows = []
    ok = True
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        c2 = ulrich.ulrich_c2(2, row.c1_sq, surface)
        dim = chern.expected_moduli_dim(NumericClassData(2, row.c1_sq, 2 * row.degree, c2))
        match = c2 == row.c2 and dim == row.dim
        ok &= match
        rows.append([row.degree, row.c1_sq, c2, dim, "ok" if match else "FAIL"])
    payload = {
        "rows": [
            {"d": d, "c1_sq": q, "c2": c2, "dim": dim, "match": match == "ok"}
            for d, q, c2, dim, match in rows
        ],
        "all_match": ok,
    }
    return CommandOutput(payload, ["d", "c1_sq", "c2", "dim", "match"], rows, [], ok)


def cmd_table_pairs(_cfg: RunConfig) -> CommandOutput:
    rng = random.Random(0xC0FFEE)
    rows = []
    ok = True
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        seed_c1 = t1 + t2
        seed_c2 = ulrich.ulrich_c2(2, seed_c1.self_intersection, cubic.CUBIC_SURFACE)
        seed = chern.BundleNumerics(2, seed_c1, seed_c2)
        partner, dim = cubic.cubic_moduli_pair(seed)
        twists_ok = True
        for _ in range(5):
            twist = checks._random_class(rng, 6, 3)
            moved = cubic.twist_partner(partner, twist)
            expected = 6 * twist.self_intersection - 3 * seed_c1.dot(twist) + partner.c2
            twists_ok &= moved.c2 == expected
            twists_ok &= chern.expected_moduli_dim(moved) == dim
        match = (seed_c2 == row.seed_c2 and partner.c2 == row.partner_c2
                 and dim == row.dim and twists_ok)
        ok &= match
        rows.append(["+".join(row.part_tags), str(seed_c1), seed_c2, partner.c2, dim,
                     "ok" if twists_ok else "FAIL", "ok" if match else "FAIL"])
    payload = {
        "rows": [
            {"parts": parts, "seed_c1": c1, "seed_c2": sc2, "partner_c2": pc2,
             "dim": dim, "twists_match": tw == "ok", "match": match == "ok"}
            for parts, c1, sc2, pc2, dim, tw, match in rows
        ],
        "all_match": ok,
    }
    headers = ["parts", "seed_c1", "seed_c2", "partner_c2", "dim", "twists", "match"]
    return CommandOutput(payload, headers, rows, [], ok)


def cmd_cubics(_cfg: RunConfig) -> CommandOutput:
    cubics = cubic.twisted_cubics()
    rows = [[t.type_tag, str(t.divisor)] for t in cubics]
    ok = len(cubics) == 72
    payload = {
        "count": len(cubics),
        "classes": [{"type": tag, "class": text} for tag, text in rows],
    }
    return CommandOutput(payload, ["type", "class"], rows, [f"count: {len(cubics)}"], ok)


def cmd_decompose(cfg: RunConfig, unordered: bool) -> CommandOutput:
    assert cfg.target is not None
    target = parse_divisor(cfg.target, cubic.CUBIC_SURFACE)
    decs = cubic.decompose_stable_sum(target, cfg.r, unordered=unordered)
    payload = cubic.decomposition_to_dict(target, cfg.r, decs)
    rows = [[i, ", ".join(str(p.divisor) for p in dec.parts)]
            for i, dec in enumerate(decs)]
    return CommandOutput(payload, ["index", "parts"], rows,
                         [f"count: {len(decs)}"], True)


def cmd_check(cfg: RunConfig) -> CommandOutput:
    extra = []
    seed_path = os.environ.get(SEED_FILE_ENV)
    if seed_path:
        extra = checks.load_seed_file(seed_path)
    results = checks.run_all_checks(extra_seeds=extra)
    ok = all(result.passed for result in results)
    rows = [[result.name, "PASS" if result.passed else "FAIL", result.detail]
            for result in results]
    payload = {
        "results": [
            {"name": result.name, "passed": result.passed, "detail": result.detail}
            for result in results
        ],
        "passed": ok,
        "extra_seeds": len(extra),
    }
    return CommandOutput(payload, ["check", "status", "detail"], rows, [], ok)


def _format_options(fn):
    fn = click.option("--format", "output_format", type=click.Choice(FORMATS),
                      default="markdown", show_default=True,
                      help="Output format.")(fn)
    fn = click.option("--out", "output_path", type=click.Path(dir_okay=False),
                      default=None, help="Write output to a file instead of stdout.")(fn)
    return fn


@click.group()
def main() -> None:
    """Exact Ulrich-bundle and syzygy-bundle numerics on del Pezzo surfaces."""


@main.command("sequence")
@click.option("--d", type=click.IntRange(4, 8), required=True,
              help="Surface degree (closed rank form needs d >= 4).")
@click.option("--r", type=click.IntRange(1, None), default=2, show_default=True,
              help="Seed rank.")
@click.option("--k-max", type=click.IntRange(0, MAX_K), default=10, show_default=True)
@_format_options
def sequence_command(d: int, r: int, k_max: int, output_format: str, output_path: str | None) -> None:
    """Syzygy ranks N_k by recurrence and by closed form, with a diff."""
    cfg = RunConfig("sequence", d=d, r=r, k_max=k_max,
                    output_format=output_format, output_path=output_path)
    _emit(cmd_sequence(cfg), output_format, output_path)


@main.command("syzygy")
@click.option("--d", type=click.IntRange(3, 8), required=True, help="Surface degree.")
@click.option("--r", type=click.IntRange(1, None), default=2, show_default=True,
              help="Seed rank.")
@click.option("--c1-sq", type=int, required=True, help="c1^2 of the seed.")
@click.option("--c2", type=int, default=None,
              help="c2 of the seed; defaults to the unique Ulrich-compatible value.")
@click.option("--k-max", type=click.IntRange(-1, MAX_K), default=5, show_default=True)
@_format_options
def syzygy_command(d: int, r: int, c1_sq: int, c2: int | None, k_max: int,
                   output_format: str, output_path: str | None) -> None:
    """Trace of the syzygy-and-twist iteration from an Ulrich seed."""
    cfg = RunConfig("syzygy", d=d, r=r, k_max=k_max, c1_sq=c1_sq, c2=c2,
                    output_format=output_format, output_path=output_path)
    try:
        out = cmd_syzygy(cfg)
    except UlrichLabError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
    _emit(out, output_format, output_path)


@main.command("table-moduli")
@_format_options
def table_moduli_command(output_format: str, output_path: str | None) -> None:
    """Rank-2 moduli-dimension table on degrees 4..7, recomputed and diffed."""
    cfg = RunConfig("table-moduli", output_format=output_format, output_path=output_path)
    _emit(cmd_table_moduli(cfg), output_format, output_path)


@main.command("table-pairs")
@_format_options
def table_pairs_command(output_format: str, output_path: str | None) -> None:
    """Cubic-surface pair table: rank-2 seeds, rank-4 partners, twist checks."""
    cfg = RunConfig("table-pairs", output_format=output_format, output_path=output_path)
    _emit(cmd_table_pairs(cfg), output_format, output_path)


@main.command("cubics")
@_format_options
def cubics_command(output_format: str, output_path: str | None) -> None:
    """List the 72 twisted cubic classes with their orbit tags."""
    cfg = RunConfig("cubics", output_format=output_format, output_path=output_path)
    _emit(cmd_cubics(cfg), output_format, output_path)


@main.command("decompose")
@click.argument("target")
@click.option("--r", type=click.IntRange(2, 6), default=2, show_default=True,
              help="Number of twisted cubic parts.")
@click.option("--unordered", is_flag=True,
              help="Collapse to one representative ordering per multiset.")
@_format_options
def decompose_command(target: str, r: int, unordered: bool,
                      output_format: str, output_path: str | None) -> None:
    """Stable-sum decompositions of TARGET, e.g. \"(4;2,1,1,1,1,0)\"."""
    cfg = RunConfig("decompose", r=r, target=target,
                    output_format=output_format, output_path=output_path)
    try:
        out = cmd_decompose(cfg, unordered)
    except UlrichLabError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
    _emit(out, output_format, output_path)


@main.command("check")
@_format_options
def check_command(output_format: str, output_path: str | None) -> None:
    """Run every module invariant and report one pass/fail line each."""
    cfg = RunConfig("check", output_format=output_format, output_path=output_path)
    try:
        out = cmd_check(cfg)
    except UlrichLabError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
    _emit(out, output_format, output_path)


if __name__ == "__main__":
    main()
