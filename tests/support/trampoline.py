"""Test-only access to the step-granular reference loop.

The ``"generator"`` execution core is no longer a public ``core=``
choice (see :func:`repro.runtime.batch.resolve_core`): the batched
core is the runtime, and carries every hook (fault injection, the
invariant audit, the watchdog, step budgets).  The step-granular
trampoline (:meth:`repro.runtime.kernel.Kernel._run_quantum`) survives
only as

* the path of event-bus tracing, whose subscribers see every save and
  restore, and
* the differential harness's *reference loop* — what the batched and
  compiled backends are pinned bit-identical against.

This module is the one sanctioned way for tests to run a kernel on
that reference loop.  It works by flipping the resolved ``core``
attribute *after* construction, which makes
``Kernel._run_to_completion`` treat every quantum as non-batchable and
route it through ``_run_quantum``.  :func:`trampoline_everywhere`
does that for every kernel a whole job builds (a fuzz campaign, a
minimization), and :func:`forbid_step_loop` proves the other side of
a comparison never touched the step loop.
"""

from __future__ import annotations

from repro.runtime.batch import RETIRED_GENERATOR_CORE
from repro.runtime.kernel import Kernel

#: the name tests use to parameterize over {reference, batched}
REFERENCE_CORE = RETIRED_GENERATOR_CORE


def force_trampoline(kernel: Kernel) -> Kernel:
    """Pin an already-built kernel to the step-granular reference loop."""
    kernel.core = REFERENCE_CORE
    return kernel


def make_kernel(core=None, **kwargs) -> Kernel:
    """``Kernel(...)`` that still accepts ``core="generator"``.

    Drop-in for test fixtures that parameterize over execution cores:
    the retired name builds a batched kernel and forces the reference
    trampoline; anything else is passed through to ``Kernel`` (and
    validated there).
    """
    if core == REFERENCE_CORE:
        return force_trampoline(Kernel(core="batched", **kwargs))
    return Kernel(core=core, **kwargs)


def trampoline_everywhere(monkeypatch) -> None:
    """Pin every kernel built from now on (for the rest of the test) to
    the reference loop."""
    init = Kernel.__init__

    def forced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        force_trampoline(self)

    monkeypatch.setattr(Kernel, "__init__", forced_init)


def forbid_step_loop(monkeypatch) -> None:
    """Fail any run that enters the step-granular loop (for the rest
    of the test): proof that a crashing run, which returns no
    ``RunResult.loop``, stayed batched."""
    def forbidden(self, max_steps):
        raise AssertionError("the run entered the step-granular loop")

    monkeypatch.setattr(Kernel, "_run_quantum", forbidden)
