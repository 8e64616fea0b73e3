"""Workload benchmark: end-to-end metrics of the jobs users run, and a
traced pass that splits their time by layer.

    python3 benchmarks/workloads/suite.py --workload spell-switchy \\
        --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untouched and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a separate,
traced pass (spans written to ``.out/spans-<workload>.json``).  Each
metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With no ``--workload``, or several, every
named workload runs in a fresh child process, one after another.

The run is pinned to the pure-Python backend, which is what a plain
install runs.  Run it from the root of a checkout; it exits with
status 2 when the checkout's ``src/repro`` is missing.  See README.md
for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / ".out"

#: end-to-end metric -> unit
END_TO_END_UNITS = {"op_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
#: fresh processes whose set-up time is measured; setup_s is the median
SETUP_PROBES = 3
#: iterations of the calibration loop, and its host time on the
#: reference host (see README.md): times are reported at that speed
CALIBRATION_ITERS = 100_000
CALIBRATION_RUNS = 3
CALIBRATION_REF_S = 0.015
#: share of a --trace 1 run spent on the untraced reference operations
UNTRACED_SHARE = 1.0 / 3.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _prepare_process() -> None:
    os.environ["REPRO_BACKEND"] = "pure"
    os.environ.pop("REPRO_CORE", None)
    sys.path.insert(0, str(SRC))


def _context(seed: int, work: Path):
    from jobs import Context

    return Context(root=ROOT, seed=seed, work=work, env=_child_env(),
                   python=sys.executable, suite=Path(__file__).resolve())


def _count(n: int):
    for i in range(n):
        yield i


def _calibration_loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    kept: list = []
    total = 0
    for i in _count(CALIBRATION_ITERS):
        table[i & 1023] = i
        total += len(table)
        if i % 7 == 0:
            kept.append(i)
        if len(kept) > 64:
            del kept[:]
    return time.perf_counter() - start


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop (generator resumption,
    dict and list updates) that uses no code of the program.

    Shared hosts drift in speed by tens of percent over minutes, and
    the drift slows this loop and the program alike.  Each operation
    is timed between two calibrations and reported at the speed the
    loop has on the reference host.  The best of a few runs is taken,
    so a single interruption does not count as drift."""
    return min(_calibration_loop() for __ in range(CALIBRATION_RUNS))


def _timed(fn):
    """``(result, (host seconds, calibration seconds))`` of ``fn()``,
    calibrated just before and just after it; the result is the
    exception instead when ``fn`` raises."""
    before = calibrate()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 — counted, never fatal
        result = exc
    host = time.perf_counter() - start
    return result, (host, (before + calibrate()) / 2)


def _closed_loop(workload, ctx, seconds: float, samples: list,
                 failures: list, rec=None) -> int:
    """Run operations back to back until ``seconds`` have passed,
    appending each one's ``(host seconds, calibration seconds)`` to
    ``samples``; returns the peak RSS (kB) of any operation's child
    processes."""

    def op():
        if rec is None:
            return workload.op(ctx)
        with rec.span("bench.op"):
            return workload.op(ctx)

    peak_child_kb = 0
    start = time.perf_counter()
    while True:
        result, sample = _timed(op)
        samples.append(sample)
        if isinstance(result, Exception):
            failures.append("%s: %s" % (type(result).__name__, result))
        else:
            try:
                problems = workload.check(ctx, result)
            except Exception as exc:  # noqa: BLE001
                problems = ["check raised %s: %s" % (type(exc).__name__,
                                                     exc)]
            if problems:
                failures.append("; ".join(problems))
            peak_child_kb = max(peak_child_kb, result.child_rss_kb)
        if time.perf_counter() - start >= seconds:
            return peak_child_kb


def median_quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count, as the result document reports them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def scaled(samples: list) -> list:
    """Host times at the reference host's speed."""
    return [host * CALIBRATION_REF_S / cal for host, cal in samples]


def _setup_probes(name: str, seed: int, work: Path) -> list:
    """``(host seconds, calibration seconds)`` of fresh processes that
    do the workload's set-up and exit: interpreter start, imports,
    inputs and warm-up."""
    times = []
    for i in range(SETUP_PROBES):
        probe_work = work / ("probe-%d" % i)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", name, "--seed", str(seed),
               "--work", str(probe_work)]
        proc, sample = _timed(lambda: subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True))
        times.append(sample)
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s"
                               % getattr(proc, "stderr", proc))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_path: Path) -> dict:
    """One workload in this process; returns the result document."""
    import jobs
    import layers
    from spans import SpanRecorder

    workload = jobs.make_workloads()[name]
    work = OUT / ("work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = _context(seed, work)
        workload.setup(ctx)
        samples: list = []
        failures: list = []
        doc = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace)}
        if not trace:
            child_kb = _closed_loop(workload, ctx, seconds, samples,
                                    failures)
            own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup = _setup_probes(name, seed, work)
            metrics = {
                "op_ms": 1000.0 * statistics.median(scaled(samples)),
                "setup_s": statistics.median(scaled(setup)),
                "peak_rss_mb": max(own_kb, child_kb) / 1024.0,
            }
            units = END_TO_END_UNITS
            doc["op_s"] = median_quartiles(scaled(samples))
            doc["op_s_host"] = median_quartiles(
                [host for host, __ in samples])
            doc["samples"] = samples
            doc["setup_samples"] = setup
        else:
            _closed_loop(workload, ctx, seconds * UNTRACED_SHARE, samples,
                         failures)
            untraced = scaled(samples)
            rec = SpanRecorder()
            sim: dict = {}
            workload.install_trace(rec, sim)
            probe = (workload.trace_probe(ctx)
                     if hasattr(workload, "trace_probe") else None)
            traced: list = []
            _closed_loop(workload, ctx, seconds * (1 - UNTRACED_SHARE),
                         traced, failures, rec=rec)
            samples += traced
            traced = scaled(traced)
            ratio = statistics.median(traced) / statistics.median(untraced)
            metrics = layers.layer_metrics(
                rec.totals(), len(traced), sim,
                getattr(workload, "engine_stats", []),
                getattr(workload, "outcomes", {}), probe, ratio)
            units = layers.PER_LAYER_UNITS
            rec.write(OUT / ("spans-%s.json" % name))
            doc["op_s_untraced"] = median_quartiles(untraced)
            doc["op_s_traced"] = median_quartiles(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc.update({
        "correct": not failures, "attempted": len(samples),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(samples),
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def _result_line(doc: dict) -> str:
    return json.dumps({k: doc[k] for k in ("correct", "attempted", "failed",
                                           "metrics")})


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print("%s %s %r %s" % (name, metric, entry["value"], entry["unit"]))


def run_children(names, args) -> int:
    """Each workload in a fresh child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d: %s" % (name, proc.returncode,
                                       proc.stderr.strip()[-400:]),
                  file=sys.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, entry in doc["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 0


def figures_child(argv) -> int:
    """``python -m repro.experiments`` with experiment- and runtime-layer
    spans; the span totals go to the JSON file named first in ``argv``."""
    import layers
    from spans import SpanRecorder

    spans_path, cli_args = argv[0], argv[2:]
    rec = SpanRecorder()
    engine_stats: list = []
    layers.install_experiments(rec, engine_stats)
    # points run in this process (--jobs 1); their counters are taken
    # from the cache instead, so this copy of the sums is dropped
    layers.install_runtime(rec, {})
    import repro.experiments.__main__ as cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    Path(spans_path).write_text(json.dumps({
        "totals": rec.totals(), "covered_s": rec.covered_s(),
        "engine": engine_stats}))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: %s not found; run from the root of a checkout"
              % (SRC / "repro"), file=sys.stderr)
        return 2
    _prepare_process()
    if argv[:1] == ["--figures-child"]:
        return figures_child(argv[1:])

    import jobs

    names = list(jobs.make_workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1993,
                        help="seed the workload inputs are made from")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass with per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="result document path (default: "
                             ".out/result-<workload>-trace<k>.json)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        work = Path(args.work)
        work.mkdir(parents=True)
        jobs.make_workloads()[args.workload[0]].setup(
            _context(args.seed, work))
        return 0
    if not args.workload or len(args.workload) > 1:
        return run_children(args.workload or names, args)

    name = args.workload[0]
    out = Path(args.out) if args.out else OUT / (
        "result-%s-trace%d.json" % (name, args.trace))
    doc = run_workload(name, args.seed, args.seconds, bool(args.trace), out)
    _print_metrics(name, doc["metrics"])
    print(_result_line(doc))
    return 0


if __name__ == "__main__":
    # str hashes are salted per process, which moves operation times
    # from one process to the next; pin the salt (and re-execute)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
