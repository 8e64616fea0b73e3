"""Committed golden files, compared byte for byte.

A test renders its observed values to text and calls
:func:`assert_golden`.  With ``REPRO_UPDATE_GOLDENS=1`` set, the file
is rewritten instead and the test skips, so the diff can be reviewed
and committed with the change that explains it (the same switch as
``tests/experiments/test_goldens.py``).
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

from repro.ioutil import atomic_write_text

UPDATE_ENV = "REPRO_UPDATE_GOLDENS"


def assert_golden(path: Path, text: str) -> None:
    """``text`` must equal the committed golden ``path`` exactly."""
    if os.environ.get(UPDATE_ENV):
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, text)
        pytest.skip("golden regenerated at %s — commit the diff" % path)
    assert path.is_file(), ("no golden committed; run with %s=1 to "
                            "create %s" % (UPDATE_ENV, path))
    expected = path.read_text()
    if text != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(True), text.splitlines(True),
            "golden", "this run"))
        pytest.fail("%s drifted (set %s=1 to regenerate if intended):\n%s"
                    % (path.name, UPDATE_ENV, diff[:6000]))
