"""Replay of the golden corpus: every pinned CLI output, one test per entry,
and the pinned public API, one test per name.

``manifest.json`` and ``api.json`` are written by ``regenerate.py``; see
``corpus.py`` and ``api.py``.
"""

import pytest

import api
import corpus
import ulrich_lab

MANIFEST = corpus.load()
API = api.load()
DESCRIBED = api.describe()


def test_manifest_holds_the_corpus_inputs():
    # A stale or hand-trimmed manifest fails here: it must hold exactly the
    # inputs that corpus.py builds, name for name.
    assert corpus.stale(MANIFEST) == []


@pytest.mark.parametrize("name", list(MANIFEST))
def test_entry(name):
    problem = corpus.replay(name, MANIFEST[name])
    assert problem is None, problem


def test_api_pins_every_public_name_and_the_cli_constants():
    names = [*ulrich_lab.__all__, "cli.FORMATS", "cli.MAX_K", "cli.SEED_FILE_ENV"]
    assert sorted(API) == sorted(DESCRIBED) == sorted(names)


@pytest.mark.parametrize("name", list(API))
def test_api_entry(name):
    assert DESCRIBED.get(name) == API[name]


def test_report_names_each_moved_entry_then_sums_them():
    old = {"kept": 1, "edited": {"exit": 0}, "gone": 2, "also gone": 3}
    new = {"kept": 1, "edited": {"exit": 1}, "fresh": 4}
    assert corpus.report(old, new, "pins.json") == [
        "added: fresh",
        "removed: also gone",
        "removed: gone",
        "changed: edited",
        "pins.json: 3 entries; 1 added, 2 removed, 1 changed",
    ]
    assert corpus.report(new, new, "pins.json") == [
        "pins.json: 3 entries; 0 added, 0 removed, 0 changed"]


def test_the_api_replay_names_what_moved():
    # A pin that lacks one name, holds a retired one and differs on a third.
    pinned = {**DESCRIBED, "retired": DESCRIBED["make_surface"]}
    del pinned["tensor"]
    pinned["iterate_syzygy"] = {**DESCRIBED["iterate_syzygy"], "signature": "(seed, surface, k)"}
    problems = corpus.api_problems(pinned)
    assert [problem.splitlines()[0] for problem in problems] == [
        "api.json: added: tensor", "api.json: removed: retired",
        "api.json: changed: iterate_syzygy"]
    assert '- "signature": "(seed, surface, k)"' in problems[2].splitlines()
