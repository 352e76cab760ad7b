"""One workload run inside a fresh interpreter; started by ``run.py``.

Prints one JSON object on stdout.  With ``--setup-only`` it stops after
set-up and reports only the set-up time.  Otherwise it runs, closed loop, the
number of whole blocks that fills ``--seconds`` at the workload's nominal
block time (untraced), or the workload's ``trace_blocks`` once untraced and
once traced (``--trace 1``).  Blocks are generated before the clock starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter

# The host's speed drifts: the same pure-Python loop takes anywhere from 0.6x
# to 1.7x its median time, switching within seconds and mid-request.  So the
# loop below is timed right after every request and, from a SIGALRM handler,
# every 0.1 s during long ones; each request's wall time (handler time
# excluded) is rescaled by the mean loop speed around and during it, to a
# machine on which the loop takes REFERENCE_CAL_S: a 2-vCPU Intel Xeon VM at
# its median speed under Python 3.11.  Raw wall times are recorded too.
REFERENCE_CAL_S = 1.4e-3
TICK_PERIOD_S = 0.1


def calibrate() -> float:
    """Wall time of a fixed mix of Fraction, big-int and tuple work (~1.4 ms)."""
    start = perf_counter()
    x, acc, v = Fraction(3, 7), 0, (1, 2, 3, 4, 5, 6)
    for i in range(1, 120):
        x = x * Fraction(i, i + 3) + Fraction(1, i)
        acc += i ** 7 * (acc % 1000003 + 1)
        v = tuple(a + b for a, b in zip(v, (i,) * 6))
    return perf_counter() - start


class SpeedMeter:
    """Samples the host's speed between requests and from a SIGALRM handler.

    A request's speed is the mean of the loop speeds measured right before
    it, right after it and by the handler during it.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []  # 1 / calibrate() from the handler
        self.paused = 0.0  # seconds spent in the handler
        self.edge = 1 / calibrate()  # speed right after the latest request

    def _tick(self, *_signal) -> None:
        start = perf_counter()
        self.ticks.append(1 / calibrate())
        self.paused += perf_counter() - start

    def __enter__(self) -> SpeedMeter:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int, float]:
        return perf_counter(), self.paused, len(self.ticks), self.edge

    def since(self, mark: tuple[float, float, int, float]) -> tuple[float, float]:
        """(wall seconds without handler time, the same rescaled) since ``mark``."""
        start, paused, ticks, edge_before = mark
        wall = perf_counter() - start - (self.paused - paused)
        self.edge = 1 / calibrate()
        speeds = [edge_before, *self.ticks[ticks:], self.edge]
        return wall, wall * REFERENCE_CAL_S * sum(speeds) / len(speeds)


def attempt(workload, req) -> tuple[str, str] | None:
    """Execute one request; return (failure kind, message), or None when correct."""
    from workloads import RefusalDefect, WrongAnswer

    try:
        workload.execute(req)
    except WrongAnswer as exc:
        return "wrong", str(exc)
    except RefusalDefect as exc:
        return "refusal", str(exc)
    except Exception as exc:  # an unexpected exception fails the request, not the run
        return "wrong", f"unexpected {type(exc).__name__}: {exc!s:.200}"
    return None


def run_blocks(workload, blocks: list, meter: SpeedMeter, tracer=None) -> dict:
    """Run the blocks closed loop; time each request, raw and rescaled."""
    latencies: list[float] = []
    raw_latencies: list[float] = []
    requests: list = []
    failures: list[tuple[str, str, str]] = []
    for block in blocks:
        for req in block:
            mark = meter.mark()
            if tracer is None:
                failure = attempt(workload, req)
            else:
                tracer.request = len(requests)
                with tracer.span("bench.request"):
                    failure = attempt(workload, req)
            raw, rescaled = meter.since(mark)
            raw_latencies.append(raw)
            latencies.append(rescaled)
            requests.append(req)
            if failure:
                failures.append((failure[0], req.kind, failure[1]))
    return {"latencies": latencies, "raw_latencies": raw_latencies, "requests": requests,
            "failures": failures, "elapsed": sum(latencies), "raw_elapsed": sum(raw_latencies)}


def timings(latencies: list[float], elapsed: float, correct: int) -> dict[str, float]:
    lat = sorted(latencies)
    # Highest percentile with at least ten samples beyond it.
    tail_index = max(0, len(lat) - 11)
    return {"throughput_rps": correct / elapsed,
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * lat[tail_index]}


def end_to_end(run: dict, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    n = len(run["latencies"])
    failed = len(run["failures"])
    units = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name, value in timings(run["latencies"], run["elapsed"], n - failed).items():
        metrics[name] = {"value": value, "unit": units[name]}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    raw = timings(run["raw_latencies"], run["raw_elapsed"], n - failed)
    raw["setup_s"] = raw_setup_s
    extra = {"failed_frac": failed / n, "samples": n,
             "tail_percentile": 100 * (max(0, n - 11) + 1) / n,
             "measured_s": run["raw_elapsed"], "raw": raw}
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    with SpeedMeter() as meter:
        return measure(args, meter)


def measure(args, meter: SpeedMeter) -> int:
    start = meter.mark()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    first = workload.block()
    workload.warm_up()
    raw_setup_s = time.monotonic() - args.spawned_at
    wall, rescaled = meter.since(start)
    # The interpreter start, before the meter ran, is rescaled at set-up's speed.
    setup_s = (raw_setup_s - (meter.paused - start[1])) * rescaled / wall
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    count = workload.trace_blocks if args.trace else ceil(args.seconds / workload.block_seconds)
    blocks = [first] + [workload.block() for _ in range(count - 1)]
    if not args.trace:
        run = run_blocks(workload, blocks, meter)
        metrics, extra = end_to_end(run, setup_s, raw_setup_s)
    else:
        import tracing

        plain = run_blocks(workload, blocks, meter)
        tracer = tracing.Tracer()
        original_invoke = workloads.invoke

        def traced_invoke(cli_args):
            with tracer.span("cli.main"):
                return original_invoke(cli_args)

        errors_before = Counter(getattr(workload, "errors", {}))
        tracer.install()
        workloads.invoke = traced_invoke
        try:
            run = run_blocks(workload, blocks, meter, tracer)
        finally:
            workloads.invoke = original_invoke
            tracer.uninstall()
        errors = Counter(getattr(workload, "errors", {})) - errors_before
        cli_of = {i: req.params[0] for i, req in enumerate(run["requests"])
                  if args.workload == "cli-session"}
        metrics = tracing.aggregate(tracer, cli_of, errors)
        metrics["trace.overhead_pct"] = {
            "value": 100 * (run["elapsed"] / plain["elapsed"] - 1), "unit": "%"}
        extra = {"samples": len(run["latencies"]), "untraced_s": plain["raw_elapsed"],
                 "traced_s": run["raw_elapsed"], "spans": len(tracer.spans)}
        if args.spans:
            tracer.write(args.spans)

    extra["median_tick_s"] = statistics.median(1 / x for x in meter.ticks) if meter.ticks else None
    failures = run["failures"]
    print(json.dumps({
        "attempted": len(run["requests"]),
        "failed": len(failures),
        "wrong": sum(kind == "wrong" for kind, _, _ in failures),
        "failure_kinds": Counter(f"{kind} {req_kind}" for kind, req_kind, _ in failures),
        "failure_examples": sorted({f"{kind} {req_kind}: {msg}" for kind, req_kind, msg
                                    in failures})[:12],
        "metrics": metrics,
        "extra": extra,
        "properties": workload.properties(run["requests"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
