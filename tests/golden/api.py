"""The public API of ulrich_lab, described as text that ``api.json`` pins.

One entry per name of ``ulrich_lab.__all__``, plus the CLI's module
constants ``cli.MAX_K``, ``cli.SEED_FILE_ENV`` and ``cli.FORMATS``.  Every
entry has its ``kind`` and the ``layer`` whose ``__all__`` lists it, and:

- a function: its signature;
- a class or exception: its method resolution order (for an exception,
  the chain through ``UlrichLabError``), its dataclass fields with their
  types and its frozen flag, the ``__slots__`` of its body, and the
  methods and properties written in its body: each public one, and each
  dunder the module's source defines (so ``ParseError.__init__``, but not
  the dunders that ``@dataclass`` generates);
- a constant: its type and repr.

The text does not depend on the interpreter.  Every module of the package
postpones its annotations, so a signature shows each annotation as the
source writes it, never as an evaluated object, and a callable whose
signature cannot be read from source (a builtin ``__init__``) is refused.

``regenerate.py`` writes :func:`describe` into ``api.json``, and
``corpus.py`` and ``test_corpus.py`` replay it.  Standard library only,
beside the package itself.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import ulrich_lab
from ulrich_lab import cli

PIN = Path(__file__).with_name("api.json")
LAYERS = ("picard", "chern", "ulrich", "syzygy", "cubic", "errors")
CLI_CONSTANTS = ("FORMATS", "MAX_K", "SEED_FILE_ENV")


def load() -> dict[str, dict]:
    """The pinned description, by name."""
    return json.loads(PIN.read_text(encoding="utf-8"))


def describe() -> dict[str, dict]:
    """The description of the API as the package now has it, by name."""
    layer_of = {name: layer for layer in LAYERS
                for name in importlib.import_module(f"ulrich_lab.{layer}").__all__}
    api = {name: {"layer": layer_of.get(name), **_describe(getattr(ulrich_lab, name))}
           for name in ulrich_lab.__all__}
    api.update((f"cli.{name}", {"layer": "cli", **_describe(getattr(cli, name))})
               for name in CLI_CONSTANTS)
    return api


def _describe(value) -> dict:
    if inspect.isclass(value):
        return _describe_class(value)
    if callable(value):
        return {"kind": "function", "signature": _signature(value)}
    return {"kind": "constant", "type": _qualified(type(value)), "repr": repr(value)}


def _describe_class(cls: type) -> dict:
    entry = {"kind": "exception" if issubclass(cls, BaseException) else "class",
             "mro": [_qualified(base) for base in cls.__mro__[1:]]}
    if dataclasses.is_dataclass(cls):
        entry["frozen"] = cls.__dataclass_params__.frozen
        entry["fields"] = [_field(field) for field in dataclasses.fields(cls)]
    if "__slots__" in vars(cls):
        entry["slots"] = list(vars(cls)["__slots__"])
    entry["members"] = {name: member for name, value in vars(cls).items()
                        if (member := _member(cls, name, value)) is not None}
    return entry


def _field(field: dataclasses.Field) -> str:
    text = f"{field.name}: {_source_text(field.type, field.name)}"
    if field.default is not dataclasses.MISSING:
        text += f" = {field.default!r}"
    return text


def _member(cls: type, name: str, value) -> str | None:
    """``kind (signature)`` of a method or property written in ``cls``'s
    body, or None for anything else."""
    if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
        return None
    if isinstance(value, property):
        kind, function = "property", value.fget
    elif isinstance(value, (classmethod, staticmethod)):
        kind, function = type(value).__name__, value.__func__
    elif inspect.isfunction(inspect.unwrap(value)):
        kind, function = "method", value
    else:
        return None
    code = inspect.unwrap(function).__code__
    # A dunder that @dataclass generates is compiled from a string.
    if code.co_filename != inspect.getmodule(cls).__file__:
        return None
    return f"{kind} {_signature(function)}"


def _signature(function) -> str:
    try:
        signature = inspect.signature(function)
    except ValueError as error:
        raise TypeError(f"{function!r} has no signature written in source") from error
    annotations = [parameter.annotation for parameter in signature.parameters.values()]
    for annotation in [*annotations, signature.return_annotation]:
        if annotation is not inspect.Signature.empty:
            _source_text(annotation, function.__qualname__)
    return str(signature)


def _source_text(annotation, owner: str) -> str:
    if not isinstance(annotation, str):
        raise TypeError(f"{owner} has the evaluated annotation {annotation!r}, "
                        "whose text would depend on the interpreter")
    return annotation


def _qualified(cls: type) -> str:
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"
