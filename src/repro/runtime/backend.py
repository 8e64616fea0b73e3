"""Execution-backend selection: the optional compiled fast path.

The simulator's proven hot path — the fused batched dispatch loop of
:meth:`repro.runtime.kernel.Kernel._run_batched` and the ISA fetch loop
of :meth:`repro.isa.machine.Machine._run_batch` — has an optional
compiled twin in the C extension :mod:`repro._fast` (built from
``src/repro/_fastcore.c``; see ``setup.py`` / the ``[compiled]``
extra).  Both backends are required to be *bit-identical*; the
differential harness (``tests/core/test_batched_vs_trampoline.py``)
enforces it the same way it pins the batched core to the step-granular
reference.

Selection precedence (highest first):

1. an explicit ``backend=`` argument on ``Kernel``/``Machine``;
2. the ``$REPRO_BACKEND`` environment variable (how CI A/Bs a whole
   run without plumbing);
3. auto-detection — ``"compiled"`` when :mod:`repro._fast` imports,
   ``"pure"`` otherwise.

Fallback is always graceful: requesting ``"compiled"`` without the
extension built warns once and runs pure, and configurations that need
the step-granular loop (fault injection, invariant audit, watchdog)
transparently run on the pure path — with a single warning when the
compiled backend was requested explicitly.  So do runs with quantum
observers armed (``kernel.tracker``/``timeline``/``tally``), which the
compiled twin does not feed; they keep the pure batched loop.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

#: the two execution backends (order: preferred first)
BACKENDS = ("compiled", "pure")

#: environment override consulted when no explicit ``backend=`` is given
ENV_BACKEND = "REPRO_BACKEND"

_fast = None
_fast_checked = False


def load_fast():
    """Import and cache :mod:`repro._fast`; ``None`` when not built."""
    global _fast, _fast_checked
    if not _fast_checked:
        _fast_checked = True
        try:
            from repro import _fast as module  # type: ignore[attr-defined]
        except ImportError:
            _fast = None
        else:
            _fast = module
    return _fast


def compiled_available() -> bool:
    """True when the compiled extension is importable."""
    return load_fast() is not None


def requested_backend(backend: Optional[str] = None) -> Optional[str]:
    """The raw request: explicit argument > ``$REPRO_BACKEND`` > None.

    ``None`` means "auto-detect".  Raises ``ValueError`` on anything
    other than the names in :data:`BACKENDS`.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or None
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            "unknown execution backend %r; expected one of %s"
            % (backend, "/".join(BACKENDS)))
    return backend


def select_backend(backend: Optional[str] = None) -> str:
    """Resolve the effective backend name (``"compiled"``/``"pure"``).

    Applies the precedence above; an explicit/env request for the
    compiled backend on a build without the extension warns once and
    falls back to pure.
    """
    requested = requested_backend(backend)
    if requested == "pure":
        return "pure"
    available = compiled_available()
    if requested == "compiled" and not available:
        warnings.warn(
            "compiled backend requested but repro._fast is not built; "
            "falling back to the pure-Python backend "
            "(build it with: REPRO_BUILD_FAST=1 pip install -e . "
            "or python setup.py build_ext --inplace)",
            RuntimeWarning, stacklevel=3)
        return "pure"
    return "compiled" if available else "pure"


def warn_step_granular_fallback(reason: str) -> None:
    """One warning when an explicitly-compiled run needs the pure path.

    Fault injection, the invariant audit and the watchdog all observe
    individual steps, so those configurations run the step-granular
    pure-Python loop regardless of backend; the run is still correct —
    the compiled and pure paths are bit-identical — just not
    accelerated.
    """
    warn_pure_fallback("%s requires the step-granular execution path"
                       % reason)


def warn_pure_fallback(why: str) -> None:
    """One warning when an explicitly-compiled run takes a pure loop
    (``why`` says what the compiled twin lacks)."""
    warnings.warn(
        "compiled backend: %s; this run uses the pure-Python loop "
        "(results are identical)" % why,
        RuntimeWarning, stacklevel=4)
