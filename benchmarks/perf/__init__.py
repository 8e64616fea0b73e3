"""Perf gates of the tree.

* ``python -m benchmarks.perf`` — the telemetry-overhead gate
  (:mod:`benchmarks.perf.bench`);
* ``python -m benchmarks.perf.pairs PARENT_TREE CHANGE_TREE`` — the
  regression gate: alternating parent/change pairs of
  ``benchmarks/workloads/suite.py`` on one host
  (:mod:`benchmarks.perf.pairs`).

Run both from the repo root with ``src`` on ``PYTHONPATH``.
"""
