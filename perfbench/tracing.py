"""Span tracing of ``ulrich_lab`` from outside the library.

:meth:`Tracer.install` wraps every public module-level function of the layer
modules and rebinds *every* name bound to it in every ``ulrich_lab`` module
namespace, so a call from one layer into another (``from .chern import
euler_char`` inside ``syzygy``, ``chern.tensor`` inside ``checks``) goes
through the wrapper.  The arithmetic methods of ``DivisorClass`` and
``QuadraticNumber`` run millions of times, so they only bump counters,
attributed to the innermost open span.

A span is ``(name, start, end, parent, request, self, k, label)``.  Self time
is the span's duration minus the time its child spans cover.  Spans stay in
memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import csv
import gzip
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("picard", "chern", "ulrich", "syzygy", "cubic", "checks", "cli")
K_ARGUMENT = {"rank_by_recurrence": 2, "rank_closed_form": 2, "closed_syzygy_chern": 2,
              "closed_syzygy_chern_numeric": 2, "rank_two_table_chern": 3, "iterate_syzygy": 2}
COUNTED_METHODS = {
    "picard.DivisorClass": {"dot": "picard.dot", "__add__": "picard.add", "__sub__": "picard.sub"},
    "syzygy.QuadraticNumber": {"__mul__": "syzygy.QuadraticNumber.mul",
                               "__rmul__": "syzygy.QuadraticNumber.mul",
                               "__pow__": "syzygy.QuadraticNumber.pow",
                               "inverse": "syzygy.QuadraticNumber.inverse"},
}


def k_bucket(k: int) -> str:
    """The k bucket of a syzygy call: k20 (k <= 20), k200 (< 600) or k1000."""
    return "k20" if k <= 20 else "k200" if k < 600 else "k1000"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[list] = []  # open frames, see _open
        self.counts: Counter = Counter()  # (innermost span name, counter)
        self.request = -1
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ulrich_lab" or n.startswith("ulrich_lab.")]
        for layer in LAYERS:
            module = sys.modules.get(f"ulrich_lab.{layer}")
            if module is None:  # checks and cli are imported by cli-session only
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if not (isinstance(fn, types.FunctionType) or hasattr(fn, "cache_info")):
                    continue
                wrapper = self._span_wrapper(f"{layer}.{attr}", fn)
                for namespace in modules:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, name, wrapper)
        for owner, methods in COUNTED_METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(sys.modules[f"ulrich_lab.{layer}"], cls_name)
            for method, key in methods.items():
                self._patch(cls, method, self._counting_wrapper(key, vars(cls)[method]))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _patch(self, target, name: str, replacement) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, replacement)

    def _span_wrapper(self, name: str, fn):
        k_index = K_ARGUMENT.get(name.split(".", 1)[1]) if name.startswith("syzygy.") else None
        if name.startswith("checks.check_"):
            label_of = lambda result: getattr(result, "name", None)  # noqa: E731
        elif name == "cubic.decompose_stable_sum":
            label_of = len
        else:
            label_of = None

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                k = None
                if k_index is not None:
                    k = args[k_index] if len(args) > k_index else kwargs.get("k", kwargs.get("k_max"))
                self._close(frame, k, label_of(result) if label_of and result is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), 0.0, name, parent, 0.0]  # index, child time, name, parent, start
        self.spans.append(None)
        self.stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, frame: list, k=None, label=None) -> None:
        end = perf_counter()
        self.stack.pop()
        index, child_time, name, parent, start = frame
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.spans[index] = (name, start, end, parent, self.request, duration - child_time, k, label)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a request or a CLI call."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _counting_wrapper(self, key: str, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[(stack[-1][2] if stack else None, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start", "end", "parent", "request", "self", "k", "label"])
            writer.writerows(self.spans)

    def total(self, key: str, inside: str | None = None) -> int:
        return sum(n for (where, k), n in self.counts.items()
                   if k == key and (inside is None or where == inside))


def aggregate(tracer: Tracer, cli_subcommand_of: dict[int, str],
              errors: Counter) -> dict[str, dict]:
    """Per-layer metrics from the recorded spans and counters.

    ``.self_ms`` and ``checks.<name>.ms`` are means per call (a check's time
    includes its children); ``.calls`` and the arithmetic counts are totals
    over the traced blocks.  ``cli_subcommand_of`` maps request ids of CLI
    requests to their subcommand; ``errors`` counts refusals by class.
    """
    spans = [s for s in tracer.spans if s is not None]
    self_by = defaultdict(float)
    calls_by = Counter()
    tuples_out = 0
    for name, start, end, _parent, _request, self_t, k, label in spans:
        calls_by[name] += 1
        self_by[name] += self_t
        if k is not None:
            calls_by[f"{name}.{k_bucket(k)}"] += 1
            self_by[f"{name}.{k_bucket(k)}"] += self_t
        if name.startswith("checks.check_") and label is not None:
            calls_by[f"checks.{label}"] += 1
            self_by[f"checks.{label}"] += end - start
        if name == "cubic.decompose_stable_sum" and label is not None:
            tuples_out += label

    def per_call(key: str) -> float:
        return 1000 * self_by[key] / calls_by[key] if calls_by[key] else 0.0

    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for fn in ("rank_by_recurrence", "rank_closed_form", "iterate_syzygy",
               "closed_syzygy_chern_numeric", "closed_syzygy_chern", "rank_two_table_chern"):
        for bucket in ("k20", "k200", "k1000"):
            put(f"syzygy.{fn}.{bucket}.self_ms", per_call(f"syzygy.{fn}.{bucket}"), "ms")
    for op in ("mul", "pow", "inverse"):
        put(f"syzygy.QuadraticNumber.{op}.calls", tracer.total(f"syzygy.QuadraticNumber.{op}"), "count")
    for op in ("dot", "add", "sub"):
        put(f"picard.{op}.calls", tracer.total(f"picard.{op}"), "count")
    for fn in ("parse_divisor", "format_divisor"):
        put(f"picard.{fn}.self_ms", per_call(f"picard.{fn}"), "ms")
    for layer, fns in (("chern", ("tensor", "tensor_line", "twist_by_h", "euler_char",
                                  "direct_sum", "dual")),
                       ("ulrich", ("is_ulrich_candidate", "ulrich_c2")),
                       ("cubic", ("decompose_stable_sum", "chi_pair_oracle"))):
        for fn in fns:
            put(f"{layer}.{fn}.calls", calls_by[f"{layer}.{fn}"], "count")
            put(f"{layer}.{fn}.self_ms", per_call(f"{layer}.{fn}"), "ms")
    put("cubic.decompose.tuples_out", tuples_out, "count")
    dots = tracer.total("picard.dot", inside="cubic.decompose_stable_sum")
    put("cubic.decompose.useful_ratio", tuples_out / dots if dots else 0.0, "ratio")
    for check in CHECK_NAMES:
        put(f"checks.{check}.ms", per_call(f"checks.{check}"), "ms")

    cli_self = defaultdict(float)
    for name, _s, _e, _p, request, self_t, _k, _l in spans:
        if name.startswith("cli.") and request in cli_subcommand_of:
            cli_self[cli_subcommand_of[request]] += self_t
    invocations = Counter(cli_subcommand_of.values())
    for sub in SUBCOMMANDS:
        n = invocations[sub]
        put(f"cli.{sub}.calls", n, "count")
        put(f"cli.{sub}.self_ms", 1000 * cli_self[sub] / n if n else 0.0, "ms")
    for cls in ERROR_CLASSES:
        put(f"errors.{cls}.count", errors[cls], "count")

    roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
    layer_self = Counter()
    for s in spans:
        layer_self[s[0].split(".", 1)[0]] += s[5]
    for layer in LAYERS + ("bench",):
        put(f"layer.{layer}.self_pct", 100 * layer_self[layer] / roots if roots else 0.0, "%")
    return metrics


SUBCOMMANDS = ("sequence", "syzygy", "table-moduli", "table-pairs", "cubics", "decompose", "check")
ERROR_CLASSES = ("BadParameter", "OutOfTheoremScope", "ParseError", "ValueError")
CHECK_NAMES = (
    "picard.signature", "picard.bilinearity", "picard.permutation-pairing",
    "picard.parser-roundtrip", "chern.tensor-commutative", "chern.tensor-associative",
    "chern.sum-permutation-invariant", "chern.chi-additive", "chern.discriminant-twist-invariant",
    "ulrich.candidate-permutation-invariant", "syzygy.rank-triangle", "syzygy.rank-monotone",
    "syzygy.drift-constant", "syzygy.delta-growth", "syzygy.closed-vs-iterate",
    "syzygy.table-vs-closed", "ulrich.thresholds", "ulrich.candidates", "ulrich.moduli-table",
    "cubic.census", "cubic.chi-closed-vs-oracle", "cubic.decompositions", "cubic.moduli-pairs",
)
