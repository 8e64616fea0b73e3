#!/usr/bin/env python
"""The working-set concept on register windows (§4.6 / Figure 15):
an awoken thread whose windows are still resident jumps the ready
queue, keeping the aggregate window working set on the processor.

Run:  python examples/working_set_demo.py [scale]
"""

import sys

from repro.experiments.engine import Engine, PointSpec
from repro.metrics.reporting import format_table

WINDOWS = (5, 6, 7, 8, 10, 12, 16)


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    specs = [PointSpec(scheme="SP", n_windows=n_windows,
                       concurrency="high", granularity="fine",
                       scale=scale, working_set=working_set)
             for n_windows in WINDOWS for working_set in (False, True)]
    points = Engine(cache_dir=None).run_points(specs)
    rows = []
    for n_windows, fifo, wset in zip(WINDOWS, points[::2], points[1::2]):
        rows.append([
            n_windows,
            fifo.total_cycles,
            wset.total_cycles,
            "%.2fx" % (fifo.total_cycles / wset.total_cycles),
            fifo.overflow_traps + fifo.underflow_traps,
            wset.overflow_traps + wset.underflow_traps,
        ])
    print(format_table(
        ["windows", "FIFO cycles", "working-set cycles", "speedup",
         "FIFO traps", "WS traps"],
        rows,
        title="SP scheme, high concurrency, fine granularity "
              "(scale %.2f)" % scale))
    print()
    print("The paper's finding: with the working-set queue the sharing")
    print("schemes already work well at 7-8 windows, and lose nothing")
    print("when windows are plentiful.")


if __name__ == "__main__":
    main()
