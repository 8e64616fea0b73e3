"""Tracked performance suite: simulator steps/sec + sweep wall-clock.

Run ``python -m benchmarks.perf`` (repo root on the path, ``src`` on
``PYTHONPATH``) to measure, ``--update`` to append the next committed
baseline ``BENCH_<n+1>.json``, ``--check`` to fail when the current
tree regresses more than the tolerance against the newest baseline
measured on the pure-Python loop (``BASELINE_PATH``).
"""

from benchmarks.perf.bench import (  # noqa: F401
    BASELINE_PATH,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    check_against_baseline,
    load_baseline,
    run_suite,
)
