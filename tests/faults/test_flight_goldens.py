"""The crash bundle's ``flight`` section pinned byte for byte.

The flight recorder keeps the last ``FLIGHT_CAPACITY`` switch and trap
records of a run that writes crash bundles.  The churn deadlock of
``test_bundle.py`` trades the CPU about 300 times before it wedges, so
its bundle's flight section is a full ring.  It is pinned per scheme,
one record per line, in the order the bundle holds them.

Regenerate (only when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/faults/test_flight_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.runtime.kernel import FLIGHT_CAPACITY, Kernel
from tests.faults.test_bundle import churn_bundle
from tests.support.goldens import assert_golden

GOLDENS = Path(__file__).parent / "goldens" / "flight"


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_churn_deadlock_flight_matches_golden(scheme, tmp_path):
    bundle = churn_bundle(Kernel(n_windows=4, scheme=scheme,
                                 crash_dir=tmp_path))
    flight = bundle["flight"]
    assert len(flight) == FLIGHT_CAPACITY
    text = "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in flight)
    assert_golden(GOLDENS / ("churn-deadlock-%s.jsonl" % scheme), text)
