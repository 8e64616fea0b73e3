#!/usr/bin/env python
"""Watch the window file over time: one row per physical window, one
column per context switch.  Under NS the file is wiped every column;
under SP the suspended threads' frames (and their PRWs, lowercase)
visibly stay put — which is exactly why its switches are cheap.

Run:  python examples/timeline_demo.py
"""

from repro import Kernel
from repro.apps.spellcheck import SpellConfig, build_spellchecker
from repro.metrics import RunObserver


def run(scheme):
    kernel = Kernel(n_windows=12, scheme=scheme, verify_registers=False)
    observer = RunObserver().attach(kernel)
    build_spellchecker(kernel, SpellConfig.named("high", "coarse",
                                                 scale=0.02))
    kernel.run()
    return observer.timeline


def main():
    for scheme in ("NS", "SNP", "SP"):
        timeline = run(scheme)
        print("=== %s scheme (occupancy %.0f%%)"
              % (scheme, 100 * timeline.occupancy_ratio()))
        print(timeline.render(max_columns=72))
        print()


if __name__ == "__main__":
    main()
