"""The deterministic cycle-domain sampling profiler.

A wall-clock profiler of a simulator answers the wrong question: it
tells you where the *host* spends time, not where the *simulated
machine* spends cycles — and its output differs on every run.  This
profiler samples on the **simulated cycle clock** instead: every
``every`` cycles of simulated time it attributes the elapsed cycle
delta to whatever is executing — the running thread's generator call
stack (for flamegraphs) and the runtime-op / ISA-opcode class (for the
"where do cycles go" table) — and records a window-occupancy sample.
Because the sample grid lives in cycle space, two runs with identical
seeds produce byte-identical profiles.

The hot-path contract is the tight part.  The kernel's batched loop may
retire a step in ~350ns of host time, so the profiler must keep its
hands out of the per-step path entirely:

* disabled: ``prof`` is a hoisted local bound to ``None`` → a single
  ``is not None`` check per *quantum*, zero per-step cost;
* enabled: the kernel decrements ``_cd`` once per **quantum** (a
  thread's uninterrupted run — the natural cycle-attribution unit);
  every ``check_every`` quanta :meth:`_check` reads the exact cycle
  counter and samples if a grid boundary was crossed.  Stacks are
  therefore sampled at quantum boundaries — where threads block,
  yield or switch — and per-op cycle attribution comes *exactly* from
  the run counters (see ``RunTelemetry.finalize``), not from samples.
  The ISA machine, whose per-instruction loop is not under the
  throughput gate, keeps an in-loop countdown and real per-opcode
  attribution via :meth:`check_op`.

The countdown means sampling granularity is "first check after the
boundary", which is deterministic because quanta and cycles advance in
lockstep with the simulation, never with the host.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.windows.occupancy import FREE

# Defaults are tuned for evaluation-scale runs (millions of cycles):
# a 16k-cycle grid gives a full-scale sweep point >1000 samples while
# keeping the enabled-path overhead well inside the 3% budget.  Small
# test runs set a finer grid on the instance before the run.
DEFAULT_EVERY = 16384     # cycles between samples
DEFAULT_CHECK_STEPS = 32  # quanta (kernel) / instructions (ISA)
                          # between countdown checks


class CycleProfiler:
    """Samples thread stacks / op kinds / occupancy on the cycle grid."""

    __slots__ = ("every", "check_every", "_cd", "_next_cycle",
                 "_last_cycle", "samples", "checks", "stack_cycles",
                 "op_cycles", "occupancy", "_n_windows", "_window_kinds")

    def __init__(self):
        self.every = DEFAULT_EVERY
        self.check_every = DEFAULT_CHECK_STEPS
        #: persistent countdown: the kernel decrements it per quantum,
        #: the ISA machine per instruction (hoisted into a local and
        #: written back, so it survives short quanta)
        self._cd = DEFAULT_CHECK_STEPS
        self._next_cycle = self.every
        self._last_cycle = 0
        self.samples = 0
        #: slow-path invocations (countdown expiries); with `_cd` this
        #: reconstructs exactly how many fast-path decrements ran —
        #: the perf gate's cost model needs the count
        self.checks = 0
        #: ";"-joined generator-stack name -> attributed cycles
        self.stack_cycles: Dict[str, int] = {}
        #: runtime-op / opcode class name -> attributed cycles
        self.op_cycles: Dict[str, int] = {}
        #: (cycle, occupied windows) samples
        self.occupancy: List[Tuple[int, int]] = []
        self._n_windows = 0
        self._window_kinds = None

    def bind(self, cpu) -> None:
        """Give the profiler the CPU whose window map it samples.

        The window-kind list is captured here (it is mutated in place,
        never reassigned), so :meth:`_sample` pays one C-level
        ``list.count`` per occupancy sample instead of an attribute
        chain plus an import.
        """
        self._n_windows = cpu.wf.n_windows
        self._window_kinds = cpu.map._kind

    # -- hot-path entry points ---------------------------------------------
    #
    # The kernel decrements `_cd` once per quantum (in its dispatch
    # loop's finally); the ISA machine hoists it into a local of its
    # instruction loop and writes the residue back at quantum exit.
    # _check / check_op are the every-`check_every` slow path and
    # re-arm the countdown themselves.

    def _check(self, thread, op_label, counters) -> None:
        """Countdown expired: read the exact clock, sample if the grid
        boundary was crossed, and re-arm.  The stack is the running
        thread's generator call stack (real procedure names)."""
        self._cd = self.check_every
        self.checks += 1
        now = counters.total_cycles
        if now < self._next_cycle:
            return
        if thread is not None:
            names = [g.gi_code.co_name for g in thread.gen_stack]
            stack = ";".join([thread.name] + names)
        else:
            stack = "(idle)"
        self._sample(stack, op_label, now)

    def check_op(self, label: str, op_label: str, counters) -> None:
        """ISA-machine variant: the "stack" is the hardware thread's
        label and the op is a real opcode mnemonic."""
        self._cd = self.check_every
        self.checks += 1
        now = counters.total_cycles
        if now < self._next_cycle:
            return
        self._sample(label, op_label, now)

    def _sample(self, stack: str, op_label, now: int) -> None:
        delta = now - self._last_cycle
        self._last_cycle = now
        self.samples += 1
        self.stack_cycles[stack] = self.stack_cycles.get(stack, 0) + delta
        if op_label is not None:
            self.op_cycles[op_label] = (
                self.op_cycles.get(op_label, 0) + delta)
        kinds = self._window_kinds
        if kinds is not None:
            occupied = self._n_windows - kinds.count(FREE)
            self.occupancy.append((now, occupied))
        # advance to the next multiple-of-`every` boundary strictly
        # after `now` — a long-running op may skip several grid points,
        # which all collapse into this one sample (delta keeps the sum
        # of cycles exact)
        self._next_cycle = now - (now % self.every) + self.every

    # -- output -------------------------------------------------------------

    def profile_section(self) -> Dict[str, Any]:
        """The ``profile`` section of a metrics snapshot (all-sorted,
        cycle-domain only — byte-stable across identical runs)."""
        return {
            "every": self.every,
            "check_steps": self.check_every,
            "samples": self.samples,
            "checks": self.checks,
            "stacks": {k: self.stack_cycles[k]
                       for k in sorted(self.stack_cycles)},
            "ops": {k: self.op_cycles[k] for k in sorted(self.op_cycles)},
            "occupancy": [list(s) for s in self.occupancy],
        }


def flamegraph_from_stacks(stack_cycles: Dict[str, int]) -> Dict[str, Any]:
    """Fold ``{";"-joined stack: cycles}`` into a nested tree.

    Every node's ``value`` is the total of its subtree (self time plus
    descendants), matching what flamegraph renderers expect; children
    are sorted by name so the tree is deterministic.
    """
    root: Dict[str, Any] = {"name": "all", "value": 0, "children": {}}
    for stack in sorted(stack_cycles):
        cycles = stack_cycles[stack]
        node = root
        node["value"] += cycles
        for frame in stack.split(";"):
            child = node["children"].get(frame)
            if child is None:
                child = {"name": frame, "value": 0, "children": {}}
                node["children"][frame] = child
            child["value"] += cycles
            node = child

    def freeze(node: Dict[str, Any]) -> Dict[str, Any]:
        children = [freeze(node["children"][k])
                    for k in sorted(node["children"])]
        out = {"name": node["name"], "value": node["value"]}
        if children:
            out["children"] = children
        return out

    return freeze(root)
