"""Benchmark of ulrich-lab: seeded closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload syzygy-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Each workload run happens in a fresh interpreter (``worker.py``) that imports
``ulrich_lab`` from this checkout's ``src``.  ``--seconds`` sets the amount of
work: the number of whole blocks that takes that long at the reference speed
at the commit that defined the benchmark.  Times are rescaled to a reference
host speed (see README.md).  ``setup_s`` is the median over several fresh
interpreters of the time from spawn to the first timed request.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, and the full record (inputs' properties,
failures, machine) is written under ``.perfbench/`` in the checkout.

``correct`` is false when a valid request got a wrong answer or an
unexpected exception.  ``failed`` also counts invalid CLI requests that were
not cleanly refused (accepted, or escaping as a raw traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("syzygy-deep", "cubic-search", "cli-session")
SETUP_SAMPLES = 7  # fresh interpreters per run whose set-up time is measured
RUN_LIMIT_S = 170
# The layers each workload is built to stress (see README.md).
CLAIMED_LAYERS = {"syzygy-deep": [("syzygy",)], "cubic-search": [("cubic", "picard")]}


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": commit}


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "ulrich_lab" / "__init__.py").is_file():
        raise BenchError(f"no ulrich_lab sources under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    main_args = base + ["--trace", str(trace)]
    if trace:
        main_args += ["--spans", str(OUT / f"spans-{tag}.csv.gz")]
        result = spawn(main_args, deadline)
    else:
        setups = [spawn(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(main_args, deadline)
        setups.append({"setup_s": result["metrics"]["setup_s"]["value"],
                       "raw_setup_s": result["extra"]["raw"]["setup_s"]})
        result["metrics"]["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
        result["extra"]["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        result["extra"]["setup_samples_s"] = setups
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, machine=machine())
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def summary_lines(result: dict) -> list[str]:
    w = result["workload"]
    extra = result["extra"]
    lines = [f"# {w} seed={result['seed']} trace={result['trace']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"wrong={result['wrong']} samples={extra['samples']}"]
    if not result["trace"]:
        lines.append(f"{w} failed_frac = {extra['failed_frac']:.6f} (of {result['attempted']})")
        lines.append(f"{w} latency_tail_ms is p{extra['tail_percentile']:.2f}")
    raw = extra.get("raw", {})
    for name, m in result["metrics"].items():
        wall = f" (wall, not rescaled: {raw[name]:.6g})" if name in raw else ""
        lines.append(f"{w} {name} = {m['value']:.6g} {m['unit']}{wall}")
    if result["trace"]:
        share = {k.split(".")[1]: m["value"] for k, m in result["metrics"].items()
                 if k.startswith("layer.")}
        for layers in CLAIMED_LAYERS.get(w, ()):
            total = sum(share[layer] for layer in layers)
            lines.append(f"{w} claim: {'+'.join(layers)} self time is {total:.1f}% of request "
                         f"time: {'holds' if total > 50 else 'FAILS'}")
    for key, value in result["properties"].items():
        lines.append(f"{w} input.{key} = {json.dumps(value)}")
    for kind, n in sorted(result["failure_kinds"].items()):
        lines.append(f"{w} failures[{kind}] = {n}")
    return lines


def verdict(result: dict) -> dict:
    return {"correct": result["wrong"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in (WORKLOADS if args.all else (args.workload,))]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print("\n".join(summary_lines(result)))
    if args.all:
        return 0 if all(r["wrong"] == 0 for r in results) else 1
    print(json.dumps(verdict(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
