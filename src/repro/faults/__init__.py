"""``repro.faults`` — deterministic seeded fault injection, the kernel
watchdog, crash-bundle diagnostics, delta-debugging minimization and
the adversarial fuzzer.

The paper's §3.1 argues window sharing can never corrupt another
thread's resident windows; this subsystem is how the repo *earns* that
claim instead of asserting it.  A :class:`FaultPlan` (seed + specs)
compiles into a :class:`FaultInjector` the kernel threads through the
CPU, the schemes and the ready queue; every injection lands on the
trace-event bus, and every escaping :class:`~repro.errors.ReproError`
can be dumped as a replayable crash bundle.

The contract the chaos suite enforces: every fault class is either
*survived* (architectural results identical to the unfaulted run) or
*detected* (a specific ``ReproError`` plus a bundle whose seed + plan
reproduce the identical failure bit-for-bit) — never silently wrong.

On top of the replay contract sit two diagnosis tools:

* :func:`minimize_bundle` delta-debugs a failing bundle down to a
  minimal fault plan and a shrunk workload schedule, each reduction
  verified by deterministic replay (``python -m repro.faults
  minimize``); and
* :func:`run_fuzz` runs seeded random fault plans against random
  workloads across schemes, auto-minimizing every detected failure (``python -m repro.faults fuzz``).
"""

from repro.faults.bundle import (
    BUNDLE_SCHEMA,
    BUNDLE_VERSION,
    BundleError,
    build_crash_bundle,
    load_bundle,
    replay_bundle,
    strip_provenance,
    write_crash_bundle,
)
from repro.faults.fuzz import FuzzReport, FuzzTrial, draw_trial, run_fuzz
from repro.faults.inject import FaultInjector, InjectedStoreError
from repro.faults.minimize import (
    MinimizeError,
    MinimizeResult,
    ddmin,
    failure_signature,
    minimize_bundle,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    plan_from_arg,
)
from repro.faults.watchdog import Watchdog
from repro.faults.workloads import (
    WORKLOADS,
    WorkloadDef,
    WorkloadError,
    get_workload,
    run_workload,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "BUNDLE_VERSION",
    "BundleError",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FuzzReport",
    "FuzzTrial",
    "InjectedStoreError",
    "MinimizeError",
    "MinimizeResult",
    "WORKLOADS",
    "Watchdog",
    "WorkloadDef",
    "WorkloadError",
    "build_crash_bundle",
    "ddmin",
    "draw_trial",
    "failure_signature",
    "get_workload",
    "load_bundle",
    "minimize_bundle",
    "plan_from_arg",
    "replay_bundle",
    "run_fuzz",
    "run_workload",
    "strip_provenance",
    "write_crash_bundle",
]
