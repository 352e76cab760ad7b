"""Rewrite manifest.json and api.json from the package as it is.

Every input that corpus.py builds is rendered again, and api.py describes
the public API again.  Both files are written with sorted keys, a fixed
indent and a trailing newline, so the same outputs give the same bytes.
For each file, one ``added:``, ``removed:`` or ``changed:`` line is printed
for each entry name that differs from the file it replaces, then a summary.
A change that alters output or the public API on purpose runs this and
lists the lines in CHANGES.md.

Usage: python3 -W error tests/golden/regenerate.py   (with ulrich_lab and
click importable, e.g. after `pip install .` or with PYTHONPATH=src)
"""

import json

import api
import corpus


def write(path, old: dict, new: dict) -> None:
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(corpus.report(old, new, path.name)))


write(corpus.MANIFEST, corpus.load() if corpus.MANIFEST.exists() else {},
      {name: {**entry, **corpus.render(**entry)} for name, entry in corpus.inputs().items()})
write(api.PIN, api.load() if api.PIN.exists() else {}, api.describe())
