"""Rewrite manifest.json from the inputs that corpus.py builds.

Every input is rendered again, and the manifest is written with sorted keys,
a fixed indent and a trailing newline, so the same outputs give the same
bytes.  One ``added:``, ``removed:`` or ``changed:`` line is printed for
each entry name that differs from the manifest it replaces, then a summary.
A change that alters output on purpose runs this and lists the lines in
CHANGES.md.

Usage: python3 -W error tests/golden/regenerate.py   (with ulrich_lab and
click importable, e.g. after `pip install .` or with PYTHONPATH=src)
"""

import json

import corpus

old = corpus.load() if corpus.MANIFEST.exists() else {}
new = {name: {**entry, **corpus.render(**entry)} for name, entry in corpus.inputs().items()}
corpus.MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
changes = {
    "added": sorted(new.keys() - old.keys()),
    "removed": sorted(old.keys() - new.keys()),
    "changed": sorted(name for name in new.keys() & old.keys() if new[name] != old[name]),
}
for kind, names in changes.items():
    for name in names:
        print(f"{kind}: {name}")
print(f"{corpus.MANIFEST.name}: {len(new)} entries; "
      + ", ".join(f"{len(names)} {kind}" for kind, names in changes.items()))
