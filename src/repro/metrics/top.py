"""Live terminal dashboard: ``python -m repro.metrics.top``.

Tails a ``repro.metrics-snapshot`` JSON file (written atomically by the
``--metrics-out`` flags, and rewritten after every committed point by
the experiment engine) and renders it as a terminal dashboard:

    python -m repro.experiments fig11 --metrics &
    python -m repro.metrics.top engine-metrics.json

* counters and gauges in one table;
* histograms with count / p50 / p99 / max columns (bucket-resolution
  percentiles, same semantics as the live ``Histogram.percentile``);
* in watch mode, an ASCII sparkline chart of worker utilization and
  cache-hit ratio over successive snapshot generations.

``--once`` renders a single frame and exits (CI smoke tests);
otherwise the screen refreshes every ``--interval`` seconds until the
snapshot's meta carries ``complete: true`` or the user hits Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.metrics.reporting import ascii_chart, format_table
from repro.metrics.telemetry import (
    histogram_percentile,
    snapshot_from_json,
)

CLEAR = "\x1b[2J\x1b[H"


def _labels(payload: Dict[str, Any]) -> str:
    return ",".join("%s=%s" % (k, v)
                    for k, v in sorted(payload.get("labels", {}).items()))

# gauges charted over snapshot generations in watch mode (0..1 range)
TRACKED_RATIOS = ("engine_worker_utilization", "engine_cache_hit_ratio")


def render(snapshot: Dict[str, Any],
           history: Dict[str, List[Tuple[float, float]]] = None) -> str:
    blocks = []
    meta = snapshot.get("meta", {})
    meta_line = "  ".join("%s=%s" % (k, v)
                          for k, v in sorted(meta.items()))
    blocks.append("repro.metrics-snapshot v%s%s" % (
        snapshot.get("version"),
        ("  [" + meta_line + "]") if meta_line else ""))

    scalars = []
    for name, payload in sorted(snapshot.get("counters", {}).items()):
        scalars.append([payload["name"], _labels(payload),
                        payload["value"], "counter"])
    for name, payload in sorted(snapshot.get("gauges", {}).items()):
        scalars.append([payload["name"], _labels(payload),
                        payload["value"], "gauge"])
    if scalars:
        blocks.append(format_table(
            ["name", "labels", "value", "kind"], scalars,
            title="counters / gauges"))

    rows = []
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        rows.append([payload["name"], _labels(payload), payload["count"],
                     histogram_percentile(payload, 50),
                     histogram_percentile(payload, 99),
                     payload["max"]])
    if rows:
        blocks.append(format_table(
            ["histogram", "labels", "n", "p50", "p99", "max"], rows,
            title="histograms (bucket-resolution percentiles)"))

    profile = snapshot.get("profile")
    if profile and profile.get("ops"):
        ops = profile["ops"]
        total = sum(ops.values()) or 1
        top = sorted(ops.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        blocks.append("cycles by op: " + ", ".join(
            "%s %.0f%%" % (op, 100.0 * n / total) for op, n in top))

    if history and any(len(pts) > 1 for pts in history.values()):
        blocks.append(ascii_chart(
            {name.replace("engine_", ""): pts
             for name, pts in history.items() if pts},
            width=60, height=8, title="trend (per snapshot generation)",
            xlabel="snapshot generation"))
    return "\n\n".join(blocks) + "\n"


def update_history(history: Dict[str, List[Tuple[float, float]]],
                   snapshot: Dict[str, Any], generation: int) -> None:
    gauges = snapshot.get("gauges", {})
    for name in TRACKED_RATIOS:
        for key, payload in gauges.items():
            if key == name or key.startswith(name + "{"):
                history.setdefault(name, []).append(
                    (float(generation), float(payload["value"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.top",
        description="Terminal dashboard tailing a repro.metrics-"
                    "snapshot JSON file.")
    parser.add_argument("snapshot", help="metrics snapshot JSON to tail")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (watch mode)")
    args = parser.parse_args(argv)

    history: Dict[str, List[Tuple[float, float]]] = {}
    generation = 0
    last_text = None
    try:
        while True:
            try:
                snapshot = snapshot_from_json(
                    Path(args.snapshot).read_text())
            except FileNotFoundError:
                if args.once:
                    print("error: %s: no such file" % args.snapshot,
                          file=sys.stderr)
                    return 1
                time.sleep(args.interval)
                continue
            except ValueError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 1
            text = json.dumps(snapshot, sort_keys=True)
            if text != last_text:
                last_text = text
                generation += 1
                update_history(history, snapshot, generation)
                frame = render(snapshot, history)
                if args.once:
                    sys.stdout.write(frame)
                    return 0
                sys.stdout.write(CLEAR + frame)
                sys.stdout.flush()
            if snapshot.get("meta", {}).get("complete"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    sys.exit(main())
