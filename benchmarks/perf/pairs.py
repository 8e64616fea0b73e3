"""Regression gate: alternating parent/change pairs of the workload
suite, run one after another on one host.

    python -m benchmarks.perf.pairs PARENT_TREE CHANGE_TREE

Each tree is a checkout; each runs its own
``benchmarks/workloads/suite.py --workload W --seed 1 --seconds S
--trace 0`` for every workload ``BENCHMARK.json`` lists, with ``S`` its
``run_seconds``.  There are ``PAIRS`` pairs, the parent first in odd
pairs, so a host that drifts in speed slows both sides alike.  The
workloads, bounds and run length are read from the parent tree's
``BENCHMARK.json``: it is the contract the change is held to.

For each (workload, end-to-end metric) it prints the two medians, the
change in percent, the parent's interquartile range in percent, the
bound and the pairs the change lost, of those where both runs gave the
metric.  A metric fails when the change's median is worse than the
parent's by more than the bound and by more than the parent's
interquartile range.  A metric that does not fail is ``unresolved``
when that range is wider than the bound, because the runs cannot then
show a regression as small as the bound, unless every change run reads
better than every parent run; it is ``unresolved`` too when no parent
run gave it.  A workload fails when the change has a larger share of
failed operations.  The exit status
is 1 on any failure, and the last line of output is one JSON document.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.workloads.suite import median_quartiles

PAIRS = 10
SEED = 1
SIDES = ("parent", "change")


def result_of(stdout: str) -> Optional[dict]:
    """The result document a suite run prints as its last line."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def suite_run(tree: Path, bench: dict, workload: str) -> dict:
    """One suite run of ``workload`` in ``tree``; a run that crashes
    counts as one failed operation with no metrics."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    doc = result_of(proc.stdout) if proc.returncode == 0 else None
    if doc is None:
        print("%s %s: exit %d: %s" % (tree, workload, proc.returncode,
                                      proc.stderr.strip()[-400:]),
              file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}}
    return doc


def decide(bench: dict, runs: Dict[str, Dict[str, List[dict]]]) -> dict:
    """The verdict on ``runs[side][workload]``, each a list of result
    documents in pair order."""
    rows, failed_share = [], {}
    for workload in [w["name"] for w in bench["workloads"]]:
        side_runs = {side: runs[side][workload] for side in SIDES}
        share = {side: [sum(d["failed"] for d in docs),
                        sum(d["attempted"] for d in docs)]
                 for side, docs in side_runs.items()}
        ratio = {side: f / max(a, 1) for side, (f, a) in share.items()}
        failed_share[workload] = dict(share, fail=ratio["change"]
                                      > ratio["parent"])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [d["metrics"][name]["value"]
                             for d in docs if name in d["metrics"]]
                      for side, docs in side_runs.items()}
            row = {"workload": workload, "metric": name, "bound": bound}
            rows.append(row)
            if not values["change"]:
                # runs that crashed on the change side only fail; on
                # both sides they leave it to the failed shares
                row["verdict"] = ("fail" if values["parent"]
                                  else "unresolved")
                continue
            if not values["parent"]:
                row["verdict"] = "unresolved"
                continue
            spread = median_quartiles(values["parent"])
            parent = spread["median"]
            change = statistics.median(values["change"])
            worse = sign * (change - parent) / parent
            iqr = (spread["q3"] - spread["q1"]) / parent
            both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in zip(*side_runs.values())
                    if name in p["metrics"] and name in c["metrics"]]
            lost = sum(sign * (c - p) > 0 for p, c in both)
            if worse > bound and worse > iqr:
                verdict = "fail"
            elif iqr > bound and not (
                    max(sign * v for v in values["change"])
                    < min(sign * v for v in values["parent"])):
                verdict = "unresolved"
            else:
                verdict = "ok"
            row.update(parent=parent, change=change, worse=worse, iqr=iqr,
                       lost=lost, pairs=len(both), verdict=verdict)
    ok = not any(r["verdict"] == "fail" for r in rows) and not any(
        f["fail"] for f in failed_share.values())
    return {"ok": ok, "rows": rows, "failed_share": failed_share}


def render(verdict: dict) -> str:
    lines = ["%-14s %-11s %11s %11s %8s %8s %6s %5s  %s" % (
        "workload", "metric", "parent", "change", "change%", "p-IQR%",
        "bound", "lost", "verdict")]
    for r in verdict["rows"]:
        if "parent" not in r:
            lines.append("%-14s %-11s %s" % (r["workload"], r["metric"],
                                               r["verdict"]))
            continue
        lines.append("%-14s %-11s %11.4g %11.4g %+7.1f%% %7.1f%% %5.0f%% "
                     "%2d/%-2d  %s" % (
                         r["workload"], r["metric"], r["parent"],
                         r["change"], 100 * r["worse"], 100 * r["iqr"],
                         100 * r["bound"], r["lost"], r["pairs"],
                         r["verdict"]))
    for workload, share in verdict["failed_share"].items():
        if share["fail"]:
            lines.append("%s: failed operations %d/%d (parent %d/%d)  fail"
                         % ((workload,) + tuple(share["change"])
                            + tuple(share["parent"])))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(t).is_dir() for t in argv):
        print("usage: python -m benchmarks.perf.pairs PARENT_TREE "
              "CHANGE_TREE (two checkouts)", file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(t).resolve() for t in argv)))
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = {side: {name: [] for name in names} for side in SIDES}
    start = time.perf_counter()
    for pair in range(1, PAIRS + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for name in names:
            for side in order:
                doc = suite_run(trees[side], bench, name)
                runs[side][name].append(doc)
                print("pair %d/%d %s %s: %s" % (
                    pair, PAIRS, side, name, " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in doc["metrics"].items())),
                      file=sys.stderr, flush=True)
    verdict = decide(bench, runs)
    verdict.update(pairs=PAIRS, seconds=bench["run_seconds"],
                   wall_s=round(time.perf_counter() - start, 1))
    print(render(verdict))
    print("pair gate %s in %.0f s" % ("OK" if verdict["ok"] else "FAILED",
                                      verdict["wall_s"]))
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
