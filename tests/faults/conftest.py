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
backend alone.  The ids name the loop every run takes, the batched
one, with the backend.
"""

import pytest

from repro.runtime.backend import ENV_BACKEND, compiled_available

BACKENDS = ("pure",) + (("compiled",) if compiled_available() else ())


@pytest.fixture(autouse=True, params=BACKENDS,
                ids=["batched-%s" % backend for backend in BACKENDS])
def execution_backend(request, monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, request.param)
    return request.param
