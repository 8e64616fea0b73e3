"""Run the whole chaos suite under every execution backend.

Fault injection, the watchdog and the invariant audit run on the pure
batched loop (the compiled twin has none of these hooks), but the
*decision* to fall back from the compiled backend — and the backend of
unfaulted reference runs — depend on the ambient execution
configuration.  Parameterizing via ``$REPRO_BACKEND`` (the same
override CI uses) exercises every fault class, the watchdog and
crash-bundle replay with the compiled backend both absent-from and
present-in the selection, without touching the individual tests; when
the compiled extension is not built, the sweep collapses to the pure
backend alone.
"""

import pytest

from repro.runtime.backend import ENV_BACKEND, compiled_available
from repro.runtime.batch import CORES, ENV_CORE

BACKENDS = ("pure",) + (("compiled",) if compiled_available() else ())

SWEEP = tuple((core, backend) for core in CORES for backend in BACKENDS)


@pytest.fixture(autouse=True, params=SWEEP,
                ids=["%s-%s" % pair for pair in SWEEP])
def execution_core(request, monkeypatch):
    core, backend = request.param
    monkeypatch.setenv(ENV_CORE, core)
    monkeypatch.setenv(ENV_BACKEND, backend)
    return core
