#!/usr/bin/env python
"""The paper's evaluation application end to end: the seven-thread
spell checker (Figure 10) over a synthetic LaTeX document, with the
§5 program-behaviour measures printed afterwards.

Run:  python examples/spellcheck_pipeline.py [scale]
"""

import sys

from repro import Kernel
from repro.apps.spellcheck import SpellConfig, build_spellchecker
from repro.metrics import RunObserver
from repro.metrics.reporting import format_table


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1

    # High concurrency, medium granularity: M = N = 4 bytes.
    config = SpellConfig.named("high", "medium", scale=scale)
    kernel = Kernel(n_windows=12, scheme="SP")
    observer = RunObserver().attach(kernel)
    parts = build_spellchecker(kernel, config)

    result = kernel.run()
    report = result.result_of("T5.output")

    print("corpus: %d bytes, dictionaries: %d + %d bytes"
          % (len(parts["corpus"]), len(parts["dicts"][0]),
             len(parts["dicts"][1])))
    print("misspellings found: %d (%d bytes)"
          % (report.count(b"\n"), len(report)))
    print("first few:", b" ".join(report.split(b"\n")[:6]).decode())
    print()

    behavior = observer.behavior()
    activity = behavior.window_activity_per_thread()
    rows = []
    for thread in result.threads:
        rows.append([
            thread.name,
            result.counters.per_thread_switches.get(thread.tid, 0),
            result.counters.per_thread_saves.get(thread.tid, 0),
            round(activity.get(thread.tid, 0.0), 2),
        ])
    print(format_table(
        ["thread", "switches", "saves", "win activity/quantum"], rows,
        title="Per-thread behaviour (cf. paper Table 1 / section 5)"))
    print()
    print("mean concurrency       : %.2f"
          % behavior.mean_concurrency())
    print("total window activity  : %.1f windows/period"
          % behavior.mean_total_window_activity())
    print("mean run length        : %.0f cycles"
          % behavior.granularity())
    print("total simulated cycles : %d" % result.counters.total_cycles)


if __name__ == "__main__":
    main()
