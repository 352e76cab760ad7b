"""Replay of the golden corpus: every pinned CLI output, one test per entry.

``manifest.json`` is written by ``regenerate.py``; see ``corpus.py``.
"""

import pytest

import corpus

MANIFEST = corpus.load()


def test_manifest_holds_the_corpus_inputs():
    # A stale or hand-trimmed manifest fails here: it must hold exactly the
    # inputs that corpus.py builds, name for name.
    assert corpus.stale(MANIFEST) == []


@pytest.mark.parametrize("name", list(MANIFEST))
def test_entry(name):
    problem = corpus.replay(name, MANIFEST[name])
    assert problem is None, problem
