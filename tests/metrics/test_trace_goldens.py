"""The trace outputs pinned byte for byte.

``python -m repro.metrics.trace`` prints a summary and the raw event
listing, and writes a Perfetto JSON (with ``--metrics``, also a window
occupancy counter track); ``python -m repro.apps.spellcheck --trace``
writes the same JSON for the spell checker.  The text is pinned per
point, with the output path in the ``wrote ...`` lines replaced by
``<path>`` and the SHA-256 of each JSON appended.

Regenerate (only when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/metrics/test_trace_goldens.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.apps.spellcheck.__main__ import main as spellcheck_main
from repro.metrics.trace import main as trace_main
from tests.support.goldens import assert_golden

GOLDENS = Path(__file__).parent / "goldens" / "trace"

SPELL = ["--scale", "0.02", "--concurrency", "high",
         "--granularity", "fine"]

#: label -> trace CLI arguments
POINTS = dict(
    [("spellcheck-%s-w%d" % (scheme, n),
      SPELL + ["--scheme", scheme, "--windows", str(n)])
     for scheme in ("NS", "SNP", "SP") for n in (5, 8)]
    + [("pingpong", ["--app", "pingpong"]),
       ("forkjoin", ["--app", "forkjoin"]),
       ("spellcheck-SNP-w8-faults",
        SPELL + ["--scheme", "SNP", "--windows", "8",
                 "--faults", "sched@2,store_delay@3"])])

#: label -> spell checker CLI arguments for ``--trace``
SPELLCHECK_POINTS = {
    "SNP-w5": ["--scale", "0.02", "--scheme", "SNP", "--windows", "5"],
    "SP-w8": ["--scale", "0.02", "--scheme", "SP", "--windows", "8"],
}


def _run(main, argv, path):
    """Run a CLI ``main``; return its stdout (path stripped) and the
    SHA-256 of the JSON it wrote to ``path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue().replace(str(path), "<path>")
    return text, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(POINTS))
def test_trace_cli_matches_goldens(label, tmp_path):
    argv = POINTS[label]
    path = tmp_path / "trace.json"
    text, plain = _run(trace_main, argv + [
        "--summary", "--list", "--limit", "300", "--perfetto", str(path)],
        path)
    __, metrics = _run(trace_main, argv + [
        "--perfetto", str(path), "--metrics"], path)
    assert_golden(GOLDENS / ("%s.txt" % label), text + (
        "perfetto sha256: %s\nperfetto --metrics sha256: %s\n"
        % (plain, metrics)))


def test_spellcheck_trace_matches_goldens(tmp_path):
    path = tmp_path / "trace.json"
    doc = {label: _run(spellcheck_main, argv + ["--trace", str(path)],
                       path)[1]
           for label, argv in sorted(SPELLCHECK_POINTS.items())}
    assert_golden(GOLDENS / "spellcheck-trace.sha256.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")
