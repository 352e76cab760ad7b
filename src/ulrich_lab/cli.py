"""Command line interface.

Every subcommand computes its numbers from the library; the two table
commands render the rows that :mod:`ulrich_lab.checks` recomputes and
diffs against the embedded golden rows.  Output is deterministic byte
for byte for a fixed invocation; the exit code is 0 exactly when every
emitted check passed.

Each subcommand is one ``cmd_*`` function, declared by ``@_subcommand``
with its click parameters and with its docstring as help text.  The
decorator adds ``--format`` (``markdown``, ``csv`` or ``json``) and
``--out PATH``, which writes to a file instead of stdout; either way the
output is written as it is rendered, not built first.  JSON is what
``json.dumps(payload, indent=2)`` writes, assembled from one call of the
stdlib's C encoder per innermost container.  CSV is what
``csv.writer(lineterminator="\n")`` writes: rows are joined by commas as long
as no cell needs quoting, and from the first row that does, a ``csv.writer``
writes the rest, so a table of numbers makes no writer.  The ``check``
subcommand honors the ``ULRICH_LAB_SEED_FILE`` environment variable, a
JSON array of bundle numerics objects to add to the seed-driven checks.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

import click

from . import checks, cubic, syzygy, ulrich
from .chern import NumericClassData
from .errors import UlrichLabError
from .picard import make_surface, parse_divisor

FORMATS = ("markdown", "csv", "json")
SEED_FILE_ENV = "ULRICH_LAB_SEED_FILE"
MAX_K = 200


@dataclass(frozen=True)
class CommandOutput:
    """A command's JSON payload and its text rows.

    A text row is a list of cells or a record whose values are the cells;
    a ``bool`` cell is shown as ``ok``/``FAIL``.  The rows are iterated
    once, by the text formats only, so they may be an iterator that builds
    each row as it is written.
    """

    payload: dict
    headers: list[str]
    rows: Iterable
    notes: list[str]
    ok: bool


def _cells(row) -> list[str]:
    values = row.values() if isinstance(row, dict) else row
    return [("ok" if v else "FAIL") if isinstance(v, bool) else str(v) for v in values]


# JSON is json.dumps(payload, indent=2), whose own indented encoder is pure
# Python.  Here the stdlib's C encoder writes every scalar, escape and
# separator: a container whose items all have exact types in _SCALARS is one
# call, with indent=2's item separator for its depth, wrapped in the opening
# line break and the closing line; any other container is laid out item by
# item.  The pieces, whole innermost containers, are joined in batches of this
# many, so the text is never held whole.
_JSON_BATCH = 16
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _layout(depth: int) -> tuple[Callable[[object], str], str, str]:
    """The encoder of a container at ``depth``, the line break and indent
    before each of its items, and the line break and indent of its close.

    The encoder writes json.dumps's text with the item separator of indent=2
    at this depth; where the C encoder is missing, json's pure-Python one
    lays it out the same.
    """
    indent = "\n" + "  " * (depth + 1)
    if json.encoder.c_make_encoder is None:
        encode = json.JSONEncoder(separators=("," + indent, ": ")).encode
    else:
        c_encode = json.encoder.c_make_encoder(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ": ", "," + indent, False, False, True)

        def encode(value) -> str:
            return "".join(c_encode(value, 0))
    return encode, indent, "\n" + "  " * depth


def _flat_text(value, layout: tuple[Callable[[object], str], str, str]) -> str | None:
    """``json.dumps(value, indent=2)`` at the depth of ``layout`` from one
    encoder call, or None if ``value`` is a container to render item by item."""
    encode, indent, close = layout
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return encode(value)
    if not _SCALARS.issuperset(map(type, items)):
        return None
    text = encode(value)
    # an empty container stays "{}" or "[]"
    return text if len(text) == 2 else f"{text[0]}{indent}{text[1:-1]}{close}{text[-1]}"


def _json_pieces(value, depth: int = 0) -> Iterator[str]:
    """Yield ``json.dumps(value, indent=2)`` in pieces, ``value`` at ``depth``."""
    layout = _layout(depth)
    text = _flat_text(value, layout)
    if text is not None:
        yield text
        return
    encode, indent, close = layout
    if isinstance(value, dict):
        # '"key": ' as the encoder converts and escapes the key
        brackets, heads, items = "{}", (encode({key: None})[1:-5] for key in value), value.values()
    else:
        brackets, heads, items = "[]", repeat(""), value
    inner = _layout(depth + 1)
    lead, between = brackets[0] + indent, "," + indent
    for head, item in zip(heads, items):
        text = _flat_text(item, inner)
        if text is None:
            yield lead + head
            yield from _json_pieces(item, depth + 1)
        else:
            yield f"{lead}{head}{text}"
        lead = between
    yield close + brackets[1]


def _write(out: CommandOutput, fmt: str, stream: TextIO) -> None:
    """Write ``out`` in format ``fmt`` to ``stream`` as it is rendered."""
    if fmt == "json":
        # json.dumps(payload, indent=2) plus a line break, written in batches
        pieces = _json_pieces(out.payload)
        while batch := "".join(islice(pieces, _JSON_BATCH)):
            stream.write(batch)
        stream.write("\n")
        return
    rows = map(_cells, out.rows)
    if fmt == "csv":
        for cells in chain((out.headers,), rows):
            line = ",".join(cells)
            # A cell holding a comma, a quote or a line break is quoted, and a
            # row of one empty cell is written "": csv.writer writes from here.
            if not line or "," in "".join(cells) or '"' in line or "\r" in line or "\n" in line:
                csv.writer(stream, lineterminator="\n").writerows(chain((cells,), rows))
                return
            stream.write(line + "\n")
        return
    stream.write("| " + " | ".join(out.headers) + " |\n")
    stream.write("| " + " | ".join("---" for _ in out.headers) + " |\n")
    for row in rows:
        stream.write("| " + " | ".join(row) + " |\n")
    for note in out.notes:
        stream.write(note + "\n")


def _stdout() -> TextIO:
    """The stream that is ``sys.stdout`` now, as click.echo would write to it.

    Named rather than left to click.echo's default, which looks sys.stdout up
    in a cache that never evicts a stream it need not rewrap (a StringIO under
    redirect_stdout), so each in-process call's buffer would live until exit.
    errors=None is that default path's own argument, so the bytes are the same.
    """
    return click.get_text_stream("stdout", errors=None)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's own ``--help`` callback, writing to :func:`_stdout` as echo would."""
    if value and not ctx.resilient_parsing:
        stream = _stdout()
        stream.write(ctx.get_help() + "\n")
        stream.flush()
        ctx.exit()


class _HelpOnStdout:
    """Gives a click command's ``--help`` option the callback :func:`_show_help`."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_HelpOnStdout, click.Command):
    pass


class _Group(_HelpOnStdout, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Exact Ulrich-bundle and syzygy-bundle numerics on del Pezzo surfaces."""


def _subcommand(name: str, *params: click.Parameter):
    """Register the decorated ``cmd_*`` function as subcommand NAME of :func:`main`.

    A library error or a ``ValueError`` (a number longer than the
    interpreter's int-string limit), raised while the command computes or
    while its output is written, becomes one click error; rows already
    written stay.  A failed check exits with status 1.
    """
    def register(command: Callable[..., CommandOutput]) -> Callable[..., CommandOutput]:
        def callback(output_format: str, output_path: str | None, **arguments) -> None:
            try:
                out = command(**arguments)
                if output_path is None:
                    # Flushed after the last row, as click.echo flushed it.
                    stream = _stdout()
                    _write(out, output_format, stream)
                    stream.flush()
                else:
                    try:
                        with open(output_path, "w", encoding="utf-8") as handle:
                            _write(out, output_format, handle)
                    except OSError as exc:
                        raise click.ClickException(
                            f"cannot write {output_path}: {exc.strerror}") from exc
            except (UlrichLabError, ValueError) as exc:
                raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc
            if not out.ok:
                raise SystemExit(1)

        main.command(name, help=command.__doc__, params=[
            *params,
            click.Option(["--out", "output_path"], type=click.Path(dir_okay=False),
                         default=None, help="Write output to a file instead of stdout."),
            click.Option(["--format", "output_format"], type=click.Choice(FORMATS),
                         default="markdown", show_default=True, help="Output format."),
        ])(callback)
        return command
    return register


def _extrapolation_notes(d: int) -> list[str]:
    if d == 8:
        return ["extrapolated: degree 8 lies outside the tabulated range; "
                "the formulas are applied beyond it"]
    return []


@_subcommand(
    "sequence",
    click.Option(["--d"], type=click.IntRange(4, 8), required=True,
                 help="Surface degree (closed rank form needs d >= 4)."),
    click.Option(["--r"], type=click.IntRange(1, None), default=2, show_default=True,
                 help="Seed rank."),
    click.Option(["--k-max"], type=click.IntRange(0, MAX_K), default=10, show_default=True),
)
def cmd_sequence(d: int, r: int, k_max: int) -> CommandOutput:
    """Syzygy ranks N_k by recurrence and by closed form, with a diff."""
    # The closed-form walk from k = 0 is made first, so its guards refuse a
    # bad d or r before the recurrence runs; each walk then runs once for all
    # rows, the closed one at one product in Z[alpha] per row.
    closed = syzygy._closed_form_ranks(d, r, 0)  # N_0, N_1, ...
    by_recurrence = islice(syzygy._recurrence_ranks(d, r), 1, None)  # N_0, N_1, ...
    rows = [{"k": k, "recurrence": by_rec, "closed_form": by_closed, "match": by_rec == by_closed}
            for k, by_rec, by_closed in zip(range(k_max + 1), by_recurrence, closed)]
    payload = {"d": d, "r": r, "extrapolated": d == 8, "rows": rows}
    return CommandOutput(payload, ["k", "recurrence", "closed_form", "match"], rows,
                         _extrapolation_notes(d), all(row["match"] for row in rows))


@_subcommand(
    "syzygy",
    click.Option(["--d"], type=click.IntRange(3, 8), required=True, help="Surface degree."),
    click.Option(["--r"], type=click.IntRange(1, None), default=2, show_default=True,
                 help="Seed rank."),
    click.Option(["--c1-sq"], type=int, required=True, help="c1^2 of the seed."),
    click.Option(["--c2"], type=int, default=None,
                 help="c2 of the seed; defaults to the unique Ulrich-compatible value."),
    click.Option(["--k-max"], type=click.IntRange(-1, MAX_K), default=5, show_default=True),
)
def cmd_syzygy(d: int, r: int, c1_sq: int, c2: int | None, k_max: int) -> CommandOutput:
    """Trace of the syzygy-and-twist iteration from an Ulrich seed."""
    surface = make_surface(d)
    if c2 is None:
        c2 = ulrich.ulrich_c2(r, c1_sq, surface)
    trace = syzygy.iterate_syzygy(NumericClassData(r, c1_sq, r * d, c2), surface, k_max)
    payload = trace.to_dict()
    payload["extrapolated"] = d == 8
    records = payload["entries"]  # from k = -1, so never empty
    return CommandOutput(payload, list(records[0]), records, _extrapolation_notes(d), True)


def _table(rows: list[dict], headers: list[str]) -> CommandOutput:
    ok = all(row["match"] for row in rows)
    return CommandOutput({"rows": rows, "all_match": ok}, headers, rows, [], ok)


@_subcommand("table-moduli")
def cmd_table_moduli() -> CommandOutput:
    """Rank-2 moduli-dimension table on degrees 4..7, recomputed and diffed."""
    return _table(checks.moduli_table_rows(), ["d", "c1_sq", "c2", "dim", "match"])


@_subcommand("table-pairs")
def cmd_table_pairs() -> CommandOutput:
    """Cubic-surface pair table: rank-2 seeds, rank-4 partners, twist checks."""
    return _table(checks.cubic_pair_rows(),
                  ["parts", "seed_c1", "seed_c2", "partner_c2", "dim", "twists", "match"])


@_subcommand("cubics")
def cmd_cubics() -> CommandOutput:
    """List the 72 twisted cubic classes with their orbit tags."""
    cubics = cubic.twisted_cubics()
    rows = [{"type": t.type_tag, "class": str(t.divisor)} for t in cubics]
    payload = {"count": len(cubics), "classes": rows}
    return CommandOutput(payload, ["type", "class"], rows, [f"count: {len(cubics)}"],
                         len(cubics) == 72)


@_subcommand(
    "decompose",
    click.Argument(["target"]),
    click.Option(["--r"], type=click.IntRange(2, 6), default=2, show_default=True,
                 help="Number of twisted cubic parts."),
    click.Option(["--unordered"], is_flag=True,
                 help="Collapse to one representative ordering per multiset."),
)
def cmd_decompose(target: str, r: int, unordered: bool) -> CommandOutput:
    """Stable-sum decompositions of TARGET, e.g. \"(4;2,1,1,1,1,0)\"."""
    divisor = parse_divisor(target, cubic.CUBIC_SURFACE)
    decs = cubic.decompose_stable_sum(divisor, r, unordered=unordered)
    payload = cubic.decomposition_to_dict(divisor, r, decs)
    rows = ([i, ", ".join(parts)] for i, parts in enumerate(payload["tuples"]))
    return CommandOutput(payload, ["index", "parts"], rows, [f"count: {len(decs)}"], True)


@_subcommand("check")
def cmd_check() -> CommandOutput:
    """Run every module invariant and report one pass/fail line each."""
    extra = []
    seed_path = os.environ.get(SEED_FILE_ENV)
    if seed_path:
        extra = checks.load_seed_file(seed_path)
    results = checks.run_all_checks(extra_seeds=extra)
    ok = all(result.passed for result in results)
    rows = [[result.name, "PASS" if result.passed else "FAIL", result.detail]
            for result in results]
    payload = {
        "results": [asdict(result) for result in results],
        "passed": ok,
        "extra_seeds": len(extra),
    }
    return CommandOutput(payload, ["check", "status", "detail"], rows, [], ok)


if __name__ == "__main__":
    main()
