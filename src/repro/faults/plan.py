"""Fault plans: the deterministic, serialisable side of injection.

A :class:`FaultPlan` is a seed plus a tuple of :class:`FaultSpec`.
Everything an injected run does is a pure function of the plan and the
workload, so a plan embedded in a crash bundle replays the identical
failure — the property trace-simplification work on concurrent
programs identifies as what makes concurrency bugs diagnosable.

Fault taxonomy (``FAULT_KINDS``), by injection site:

================  =======  ====================================================
kind              site     effect
================  =======  ====================================================
``register``      save     corrupt an out register as a call's arguments cross
                           the save (caught by argument verification)
``retval``        restore  corrupt the return value crossing the restore
                           (caught by return-value verification)
``wim``           save     flip one WIM bit (caught by the invariant audit)
``cwp``           save     flip the hardware CWP (caught by the audit /
                           geometry checks)
``trap_drop``     save     lose an overflow trap: the save runs straight into
                           an invalid window
``trap_dup``      save     deliver an overflow trap twice
``store_corrupt`` store    corrupt a register inside a spilled frame
``store_fail``    store    backing-store access raises a *transient* error
``store_delay``   store    backing-store access charges extra cycles
                           (survivable: results unchanged, cycles higher)
``sched``         enqueue  deterministically shuffle the ready queue
                           (survivable: results must not depend on order)
================  =======  ====================================================
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: every injectable fault kind, grouped by the hook site that fires it
FAULT_KINDS = (
    "register", "retval", "wim", "cwp", "trap_drop", "trap_dup",
    "store_corrupt", "store_fail", "store_delay", "sched",
)

#: hook site of each kind: "save", "restore", "store" or "enqueue"
SITE_OF: Dict[str, str] = {
    "register": "save",
    "retval": "restore",
    "wim": "save",
    "cwp": "save",
    "trap_drop": "save",
    "trap_dup": "save",
    "store_corrupt": "store",
    "store_fail": "store",
    "store_delay": "store",
    "sched": "enqueue",
}

#: kinds that must be *survived* (architectural results unchanged);
#: everything else must be *detected* (or provably harmless)
SURVIVABLE_KINDS = ("store_delay", "sched")

DEFAULT_SEED = 1993


@dataclass(frozen=True)
class FaultSpec:
    """One injection: fire ``kind`` at the ``at``-th visit of its site.

    ``arg`` parameterises the fault (register index for ``register``,
    window for ``wim``, delay cycles for ``store_delay``); when None
    the injector draws it from the plan's seeded RNG.
    """

    kind: str
    at: int = 1
    arg: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (want one of %s)"
                             % (self.kind, ", ".join(FAULT_KINDS)))
        if self.at < 1:
            raise ValueError("fault trigger 'at' must be >= 1, got %d"
                             % self.at)

    @property
    def site(self) -> str:
        return SITE_OF[self.kind]

    def describe(self) -> str:
        text = "%s@%d" % (self.kind, self.at)
        if self.arg is not None:
            text += ":%d" % self.arg
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A seeded RNG plus the fault specs it drives.

    The plan is the unit of replay: ``FaultPlan.from_payload(
    plan.to_payload())`` round-trips exactly, and two injectors built
    from equal plans perturb a deterministic workload identically.
    """

    seed: int = DEFAULT_SEED
    specs: Tuple[FaultSpec, ...] = ()

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = DEFAULT_SEED) -> "FaultPlan":
        """Parse a CLI spec: ``kind[@at[:arg]]`` comma-separated, or
        ``random:N`` for N RNG-drawn faults.

            FaultPlan.parse("register@3,store_fail@2:0")
            FaultPlan.parse("random:4", seed=7)
        """
        text = (text or "").strip()
        if not text:
            return cls(seed=seed)
        if text.startswith("random:"):
            count = int(text.split(":", 1)[1])
            if count < 1:
                raise ValueError("random:N needs N >= 1, got %d" % count)
            return cls.random(seed, count=count)
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            arg: Optional[int] = None
            at = 1
            if "@" in part:
                kind, trigger = part.split("@", 1)
                if ":" in trigger:
                    trigger, raw_arg = trigger.split(":", 1)
                    arg = int(raw_arg)
                at = int(trigger)
            else:
                kind = part
            specs.append(FaultSpec(kind=kind, at=at, arg=arg))
        return cls(seed=seed, specs=tuple(specs))

    @classmethod
    def random(cls, seed: int = DEFAULT_SEED, count: int = 1,
               kinds: Optional[Sequence[str]] = None,
               horizon: int = 25) -> "FaultPlan":
        """``count`` faults with RNG-drawn kinds and trigger points in
        ``[1, horizon]`` — same seed, same plan, always."""
        rng = random.Random(seed)
        pool = tuple(kinds) if kinds else FAULT_KINDS
        specs = tuple(FaultSpec(kind=rng.choice(pool),
                                at=rng.randint(1, horizon))
                      for __ in range(count))
        return cls(seed=seed, specs=specs)

    # -- serialisation ------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "specs": [{"kind": s.kind, "at": s.at, "arg": s.arg}
                          for s in self.specs]}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FaultPlan":
        specs = tuple(FaultSpec(kind=s["kind"], at=int(s["at"]),
                                arg=s.get("arg"))
                      for s in payload.get("specs", []))
        return cls(seed=int(payload.get("seed", DEFAULT_SEED)),
                   specs=specs)

    def describe(self) -> str:
        if not self.specs:
            return "no faults (seed=%d)" % self.seed
        return "%s (seed=%d)" % (
            ",".join(s.describe() for s in self.specs), self.seed)

    def __bool__(self) -> bool:
        return bool(self.specs)


def plan_from_arg(text: Optional[str],
                  seed: int = DEFAULT_SEED) -> Optional[FaultPlan]:
    """A CLI's ``--faults`` value as a plan; None/empty means no plan.

    A malformed plan is a usage error: one ``error:`` line on stderr
    and exit status 2, raised before anything runs.
    """
    if not text:
        return None
    try:
        return FaultPlan.parse(text, seed=seed)
    except ValueError as exc:
        print("error: --faults %s: %s" % (text, exc), file=sys.stderr)
        raise SystemExit(2) from None
