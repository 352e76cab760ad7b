"""The golden corpus: every pinned output of the ulrich-lab CLI.

Each entry runs ``ulrich-lab ARGS`` in process through click's test runner
and pins its exit code, and the sha256 and length of its output (stdout and
stderr as the runner shows them, encoded as UTF-8).  An output of at most
``TEXT_LIMIT`` bytes is kept as text too, so that a mismatch shows a diff.
An entry may carry a seed file, written to a temporary file that
``ULRICH_LAB_SEED_FILE`` names (every other entry runs with that variable
unset), and a terminal width, for the ``--help`` pages.  An entry's name is
its arguments joined by spaces, with a ``[width=N]`` or ``[seed-file=...]``
suffix.

:func:`inputs` builds the corpus in code; ``regenerate.py`` renders it
into ``manifest.json``, and ``test_corpus.py`` replays that file under
pytest.  The public API is pinned beside it, in ``api.json`` (see
``api.py``), and replayed the same way.  Run as a script, this module
replays both files without pytest:

    python3 -W error tests/golden/corpus.py

with ``ulrich_lab`` and ``click`` importable (after ``pip install .``, or
with ``PYTHONPATH=src``).  It prints one summary line, or names every entry
that differs and exits 1.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

import api
from ulrich_lab.cli import FORMATS, SEED_FILE_ENV, main
from ulrich_lab.tables import MODULI_DIM_ROWS

MANIFEST = Path(__file__).with_name("manifest.json")
TEXT_LIMIT = 4096

# Seed files of the `check` entries, by the label in their names: one good
# extra seed (three details count 33 seeds), and one whose c2 = 5 is not its
# class's Ulrich c2 (4), so three syzygy checks raise NotUlrich and
# ulrich.candidates fails.
SEED_FILES = {
    "good": '[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4}]',
    "non-ulrich": '[{"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 5}]',
}

# FORMATS, the subcommands (in the order they are registered) and the rows
# (d, c1^2, c2) of the rank-2 moduli table are read from the library, so a new
# subcommand's --help pages fail the stale-manifest test until they are pinned.
SUBCOMMANDS = tuple(main.commands)
MODULI_SEEDS = tuple((row.degree, row.c1_sq, row.c2) for row in MODULI_DIM_ROWS)

# Sums of twisted cubics by r, with the representatives A = (1;0,0,0,0,0,0),
# B = (2;1,1,1,0,0,0), C = (3;2,1,1,1,1,0), D = (4;2,2,2,1,1,1) and
# E = (5;2,2,2,2,2,2); H = (3;1,1,1,1,1,1), so A+E = 2H.
DECOMPOSE_TARGETS = {
    2: ("(4;2,1,1,1,1,0)",   # A+C
        "(5;2,2,2,1,1,1)",   # A+D
        "(6;2,2,2,2,2,2)",   # A+E = 2H
        "(7;3,3,3,2,2,2)",   # B+E
        "(8;4,3,3,3,3,2)"),  # C+E
    3: ("(9;4,3,3,3,3,2)",   # A+C+E
        "(9;3,3,3,3,3,3)"),  # 3H
    4: ("(12;4,4,4,4,4,4)",),  # 4H
}


def _entry(args: list[str], seed_file: str | None = None, width: int | None = None):
    name = " ".join(args)
    entry = {"args": args}
    if width is not None:
        name += f" [width={width}]"
        entry["width"] = width
    if seed_file is not None:
        name += f" [seed-file={seed_file}]"
        entry["seed_file"] = SEED_FILES[seed_file]
    return name, entry


def inputs() -> dict[str, dict]:
    """Every corpus input by name, in a fixed order.

    An input is ``args``, with ``seed_file`` (the file's text) or ``width``
    when it has one.  A name built twice is one entry.
    """
    runs = []
    # The published tables and the self-check report.
    for command in ("table-moduli", "table-pairs"):
        runs += [[command], [command, "--format", "csv"], [command, "--format", "json"]]
    runs += [["check"], ["check", "--format", "csv"], ["check", "--format", "json"]]
    # syzygy to k = 200 on every moduli-table row, on the rH seeds of degree
    # 8 and on 3H of degree 5 (its Ulrich c2 by default).
    seeds = [["--d", str(d), "--c1-sq", str(c1_sq), "--c2", str(c2)]
             for d, c1_sq, c2 in MODULI_SEEDS]
    seeds += [["--d", "8", "--r", str(r), "--c1-sq", str(8 * r * r)] for r in (1, 2, 3)]
    seeds.append(["--d", "5", "--r", "3", "--c1-sq", "45"])
    runs += [["syzygy", *seed, "--k-max", "200", "--format", fmt]
             for seed in seeds for fmt in FORMATS]
    # sequence with the default r and format, then on a grid.
    runs += [["sequence", "--d", str(d), "--k-max", "200"] for d in (5, 6, 7, 8)]
    runs += [["sequence", "--d", str(d), "--r", str(r), "--k-max", str(k), "--format", fmt]
             for d in range(4, 9) for r in (1, 2, 3) for k in (0, 1, 2, 37, 200)
             for fmt in FORMATS]
    runs += [["cubics", "--format", fmt] for fmt in FORMATS]
    # decompose: --r only when it is not the default 2; then a class of
    # degree 6 with no stable decomposition.
    runs += [["decompose", target, *(["--r", str(r)] if r != 2 else []), *unordered,
              "--format", fmt]
             for r, targets in DECOMPOSE_TARGETS.items() for target in targets
             for unordered in ([], ["--unordered"]) for fmt in FORMATS]
    runs.append(["decompose", "(2;0,0,0,0,0,0)"])
    entries = dict(_entry(args) for args in runs)
    entries.update(_entry(args, seed_file=label) for args, label in (
        (["check", "--format", "json"], "good"),
        (["check"], "non-ulrich"),
        (["check", "--format", "json"], "non-ulrich")))
    # The --help page of the group and of every subcommand.
    helps = [["--help"], *([command, "--help"] for command in SUBCOMMANDS)]
    entries.update(_entry(args, width=width) for width in (60, 80, 120) for args in helps)
    return entries


def render(args: list[str], seed_file: str | None = None, width: int | None = None) -> dict:
    """Run ``ulrich-lab ARGS`` in process: its exit code, the sha256 and
    byte length of its output, and the output itself up to ``TEXT_LIMIT``
    bytes.  An exception other than the CLI's own exit propagates."""
    if seed_file is not None:
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "seeds.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(seed_file)
            return _outcome(args, path, width)
    return _outcome(args, None, width)


def _outcome(args: list[str], seed_path: str | None, width: int | None) -> dict:
    result = CliRunner().invoke(main, args, env={SEED_FILE_ENV: seed_path},
                                catch_exceptions=False, terminal_width=width)
    data = result.output.encode("utf-8")
    outcome = {"exit": result.exit_code, "sha256": hashlib.sha256(data).hexdigest(),
               "bytes": len(data)}
    if len(data) <= TEXT_LIMIT:
        outcome["text"] = result.output
    return outcome


def load() -> dict[str, dict]:
    """The manifest: each entry's input and pinned outcome, by name."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def input_of(entry: dict) -> dict:
    """The input part of a manifest entry, as :func:`inputs` builds it."""
    return {key: entry[key] for key in ("args", "seed_file", "width") if key in entry}


def replay(name: str, entry: dict) -> str | None:
    """None when the entry renders as pinned; else a report that names it,
    with a diff when both outputs are short enough to be kept as text."""
    got = render(**input_of(entry))
    pinned = [entry[key] for key in ("exit", "sha256", "bytes")]
    if [got[key] for key in ("exit", "sha256", "bytes")] == pinned:
        return None
    report = [f"{name}: pinned exit {entry['exit']}, {entry['bytes']} bytes, sha256 "
              f"{entry['sha256'][:12]}; got exit {got['exit']}, {got['bytes']} bytes, "
              f"sha256 {got['sha256'][:12]}"]
    if "text" in entry and "text" in got:
        report += difflib.unified_diff(entry["text"].splitlines(), got["text"].splitlines(),
                                       "pinned", "rendered", lineterm="")
    return "\n".join(report)


def stale(manifest: dict[str, dict]) -> list[str]:
    """A line for each name that the manifest and :func:`inputs` do not
    share, and for each shared name whose input differs."""
    built = inputs()
    lines = [f"not in the corpus: {name}" for name in manifest.keys() - built.keys()]
    lines += [f"not in the manifest: {name}" for name in built.keys() - manifest.keys()]
    lines += [f"input differs: {name}" for name in built.keys() & manifest.keys()
              if input_of(manifest[name]) != built[name]]
    return sorted(lines)


def changes(old: dict, new: dict) -> dict[str, list[str]]:
    """The names that ``new`` adds to ``old``, removes from it, and holds
    with another value, each sorted."""
    return {
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
        "changed": sorted(name for name in new.keys() & old.keys() if new[name] != old[name]),
    }


def report(old: dict, new: dict, filename: str) -> list[str]:
    """One ``added:``, ``removed:`` or ``changed:`` line per name of
    :func:`changes`, then a summary line for ``filename`` written as ``new``."""
    moved = changes(old, new)
    return [*(f"{kind}: {name}" for kind, names in moved.items() for name in names),
            f"{filename}: {len(new)} entries; "
            + ", ".join(f"{len(names)} {kind}" for kind, names in moved.items())]


def api_problems(pinned: dict[str, dict]) -> list[str]:
    """A report for each name whose description differs from ``api.json``:
    the package's name as added, removed or changed, and a changed entry's
    diff."""
    described = api.describe()
    problems = []
    for kind, names in changes(pinned, described).items():
        for name in names:
            lines = [f"{api.PIN.name}: {kind}: {name}"]
            if kind == "changed":
                lines += difflib.unified_diff(
                    json.dumps(pinned[name], indent=1, sort_keys=True).splitlines(),
                    json.dumps(described[name], indent=1, sort_keys=True).splitlines(),
                    "pinned", "described", lineterm="")
            problems.append("\n".join(lines))
    return problems


def _main() -> None:
    manifest, pinned_api = load(), api.load()
    # The API first, and shown at once: a changed signature or field can make
    # a CLI entry raise, which ends the replay below with a traceback.
    problems = api_problems(pinned_api)
    for problem in problems:
        print(problem, file=sys.stderr)
    cli_problems = stale(manifest)
    cli_problems += filter(None, (replay(name, entry) for name, entry in manifest.items()))
    problems += cli_problems
    files = (f"{len(manifest)} entries of {MANIFEST.name} and {len(pinned_api)} of "
             f"{api.PIN.name}")
    if problems:
        sys.exit("\n".join([*cli_problems, f"golden: {len(problems)} problem(s) in {files}"]))
    print(f"golden: {files} replayed, all match")


if __name__ == "__main__":
    _main()
