"""The kernel-fed RunReport observer: byte-identical to a trace-fed one.

``run_report_point`` attaches a ``RunObserver`` to the kernel, which
records each quantum once in the observer's record log; the report's
sections are computed from that log.  The reference is the old wiring
(:mod:`tests.support.bus_oracle`): the recorded trace, quanta built
from its events and a timeline snapshotted at each recorded
dispatch.  Both run on the batched loop,
and both must produce the same report, byte for byte.
"""

import pytest

import repro.experiments.harness as harness
from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.core.working_set import FIFOPolicy
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.observer import RunObserver
from repro.metrics.report import to_json
from repro.metrics.tracing import OccupancyTimeline
from tests.support.bus_oracle import BusObservers

SCALE = 0.02

#: the golden grid, plus one faulted and one audited point
POINTS = [
    dict(scheme=scheme, n_windows=n, concurrency=conc, granularity=gran)
    for scheme in ("NS", "SNP", "SP")
    for n in (5, 8)
    for conc, gran in (("high", "fine"), ("low", "coarse"))
] + [
    dict(scheme="SNP", n_windows=8, concurrency="high",
         granularity="fine", faults="sched@2,store_delay@3"),
    dict(scheme="SP", n_windows=5, concurrency="high",
         granularity="fine", audit=True),
]


def _point_id(point):
    extra = "-faults" if "faults" in point else (
        "-audit" if "audit" in point else "")
    return "%s-%d-%s-%s%s" % (point["scheme"], point["n_windows"],
                              point["concurrency"], point["granularity"],
                              extra)


def _oracle_report(point, config):
    faults = point.get("faults", "")
    injector = (FaultInjector(FaultPlan.parse(faults, seed=1993))
                if faults else None)
    bus = BusObservers()
    result, __ = run_spellchecker(
        point["n_windows"], point["scheme"],
        SpellConfig.named(point["concurrency"], point["granularity"],
                          scale=SCALE, seed=1993),
        queue_policy=FIFOPolicy(), instrument=bus.attach,
        verify_registers=bool(faults), faults=injector,
        audit=point.get("audit", False))
    assert result.loop == "pure-batched"
    return bus.report(result, config)


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_report_point_matches_the_bus_oracle(point):
    report = harness.run_report_point(scale=SCALE, **point)
    assert report["events"]["by_kind"]["run_end"] == 1
    assert to_json(report) == to_json(_oracle_report(point,
                                                     report["config"]))


def test_report_point_keeps_the_batched_loop(monkeypatch):
    results = []

    def spy(*args, **kwargs):
        result, output = run_spellchecker(*args, **kwargs)
        results.append(result)
        return result, output

    monkeypatch.setattr(harness, "run_spellchecker", spy)
    report = harness.run_report_point("SP", 8, "high", "fine",
                                      scale=SCALE)
    assert [r.loop for r in results] == ["pure-batched"]
    assert report["behavior"]["quanta"] == \
        report["events"]["by_kind"]["dispatch"]


def test_kernel_observers_agree_with_the_bus_on_the_batched_loop():
    """Armed next to tracing (the trace CLI's setup), the kernel hooks
    see what the trace records, on the same batched loop."""
    bus = BusObservers()
    observer = RunObserver()

    def instrument(kernel):
        bus.attach(kernel)
        observer.attach(kernel)

    result, __ = run_spellchecker(
        6, "NS", SpellConfig.named("high", "fine", scale=SCALE),
        instrument=instrument)
    assert result.loop == "pure-batched"
    assert observer.events(result) == bus.events(result)
    assert observer.behavior()._rows == bus.behavior()._rows
    assert observer.timeline.samples == bus.timeline.samples


def test_fault_events_count_applied_trap_actions():
    """A trap action fires once and is applied once: two ``fault``
    events, even though the run then fails."""
    injector = FaultInjector(FaultPlan.parse("trap_dup@1", seed=1993))
    bus = BusObservers()

    def instrument(kernel):
        bus.attach(kernel)
        RunObserver().attach(kernel)

    with pytest.raises(ReproError):
        run_spellchecker(5, "SNP",
                         SpellConfig.named("high", "fine", scale=SCALE),
                         instrument=instrument, faults=injector,
                         verify_registers=True)
    faults = len(bus.recorder.filter(kinds=("fault",)))
    assert faults == 2
    assert len(injector.fired) + injector.trap_actions_applied == faults


class _Map:
    def __init__(self, kinds, tids):
        self.n_windows = len(kinds)
        self._kind = list(kinds)
        self._tid = list(tids)


class _CPU:
    def __init__(self, kinds, tids):
        self.map = _Map(kinds, tids)


def test_timeline_counts_rendered_glyphs():
    """Samples keep the raw map columns; churn still counts
    what the rendered timeline shows (tids 36 apart share a glyph)."""
    timeline = OccupancyTimeline()
    timeline.snapshot(_CPU(["frame", "reserved", "free"], [0, None, None]),
                      0, 10)
    timeline.snapshot(_CPU(["frame", "reserved", "free"], [36, 3, None]),
                      36, 20)
    first, second = timeline.samples
    assert first.cells == ["0", "#", "."]
    assert second.cells == ["0", "d", "."]
    assert timeline.churn() == pytest.approx(1 / 3)
    assert timeline.occupancy_ratio() == pytest.approx(2 / 6)
    assert timeline.render().splitlines()[:3] == [
        "W0  00", "W1  #d", "W2  .."]
