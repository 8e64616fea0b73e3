"""Closed-form performance model of the three schemes.

The paper reasons qualitatively: "Efficiency of the proposed scheme is
directly affected by the total window activity; if it is smaller than
the number of physical windows, the proposed scheme works well" (§5),
and Figure 12 shows sharing-scheme switch costs approaching their best
case once windows suffice.  This module turns that reasoning into
arithmetic so the simulation can be sanity-checked against it:

* given per-quantum behaviour statistics (window activity per thread,
  switch count, call counts), predict cycle totals per scheme in the
  two limiting regimes — *windows plentiful* (total window activity
  fits; sharing switches hit their best case and traps vanish) and
  *windows scarce* (every switch reloads, every deep call spills);
* the measured curve must then lie between the two bounds, and
  approach the plentiful bound as the window count grows.

This is deliberately a bounding model, not a queueing model: its value
is catching simulator regressions (a cost accounted twice, a trap
path that stopped firing), not precise interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import CostModel


@dataclass(frozen=True)
class WorkloadStats:
    """Scheme-independent behaviour of one workload configuration.

    All of these are observable under *any* scheme (they are fixed by
    the program and the buffer sizes, §5.2): take them from a
    :class:`repro.metrics.counters.Counters` of any run.
    """

    context_switches: int
    saves: int
    restores: int
    compute_cycles: int
    #: mean windows used per scheduling quantum (§5, measured)
    window_activity_per_thread: float
    #: threads concurrently scheduled (§5)
    concurrency: float

    @property
    def total_window_activity(self) -> float:
        """§5: the product of per-thread activity and concurrency."""
        return self.window_activity_per_thread * self.concurrency


class AnalyticModel:
    """Upper/lower cycle bounds per scheme from workload statistics."""

    def __init__(self, stats: WorkloadStats, cost: CostModel = None):
        self.stats = stats
        self.cost = cost if cost is not None else CostModel()

    # -- helpers -------------------------------------------------------------

    def windows_plentiful(self, n_windows: int) -> bool:
        """The §5 criterion for the sharing schemes to work well."""
        return n_windows >= self.stats.total_window_activity

    def _base_cycles(self) -> float:
        """Scheme-independent work: compute + the save/restore
        instructions themselves."""
        return (self.stats.compute_cycles
                + self.stats.saves * self.cost.save_instr
                + self.stats.restores * self.cost.restore_instr)

    # -- NS ----------------------------------------------------------------------

    def ns_cycles(self) -> float:
        """NS is window-count independent: every switch flushes the
        active windows (~the per-thread activity) and restores one, and
        each flushed-but-needed window returns via an underflow trap."""
        s = self.stats
        per_switch_flush = max(1.0, s.window_activity_per_thread)
        switch = s.context_switches * self.cost.ns_switch_cost(1, 1)
        switch += (s.context_switches * (per_switch_flush - 1)
                   * self.cost.ns_per_save)
        hidden_underflows = (s.context_switches
                             * max(0.0, per_switch_flush - 1))
        traps = (hidden_underflows
                 * self.cost.underflow_conventional_cost())
        return self._base_cycles() + switch + traps

    # -- sharing lower bound (windows plentiful) ------------------------------------

    def sharing_floor_cycles(self, scheme: str) -> float:
        """Every switch is the Table 2 best case; no window traps."""
        s = self.stats
        if scheme.upper() == "SP":
            per_switch = self.cost.sp_switch_cost(0, 0, False)
        else:
            per_switch = self.cost.snp_switch_cost(0, 0)
        return self._base_cycles() + s.context_switches * per_switch

    # -- sharing upper bound (windows scarce) ---------------------------------------

    def sharing_ceiling_cycles(self, scheme: str) -> float:
        """Every switch reloads the thread's working set through the
        allocation path, and every quantum re-spills it."""
        s = self.stats
        activity = max(1.0, s.window_activity_per_thread)
        if scheme.upper() == "SP":
            per_switch = self.cost.sp_switch_cost(2, 1, True)
        else:
            per_switch = self.cost.snp_switch_cost(1, 1)
        trap_cycles = (s.context_switches * activity
                       * (self.cost.overflow_cost(True)
                          + self.cost.underflow_inplace_cost()))
        return (self._base_cycles()
                + s.context_switches * per_switch + trap_cycles)

    # -- the headline prediction ------------------------------------------------------

    def sharing_beats_ns_when_plentiful(self, scheme: str) -> bool:
        return self.sharing_floor_cycles(scheme) < self.ns_cycles()


def stats_from_run(counters, behavior) -> WorkloadStats:
    """Build workload statistics from a finished observed run's
    counters and :class:`~repro.metrics.behavior.Behavior`."""
    return WorkloadStats(
        context_switches=counters.context_switches,
        saves=counters.saves,
        restores=counters.restores,
        compute_cycles=counters.compute_cycles,
        window_activity_per_thread=behavior.mean_window_activity(),
        concurrency=behavior.mean_concurrency(),
    )
