"""Tests of the workload benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/workloads/test_suite.py
"""

from __future__ import annotations

import json
import re

import jobs
import layers
import suite
from spans import SpanRecorder

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((suite.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.begin("op")                    # t=0
    clock.now = 1.0
    rec.begin("run")                   # t=1
    clock.now = 2.0
    for __ in range(3):                # 3 x 0.5 s fine spans
        rec.begin("switch", keep=False)
        clock.now += 0.25
        rec.begin("emit", keep=False)
        clock.now += 0.25
        rec.end()
        rec.end()
    clock.now = 6.0
    rec.end()                          # run: 5 s, 1.5 s of it switches
    clock.now = 7.0
    rec.end()                          # op: 7 s, 5 s of it run
    totals = rec.totals()
    assert totals["op"] == {"count": 1, "total_s": 7.0, "self_s": 2.0}
    assert totals["run"] == {"count": 1, "total_s": 5.0, "self_s": 3.5}
    assert totals["switch"] == {"count": 3, "total_s": 1.5, "self_s": 0.75}
    assert totals["emit"] == {"count": 3, "total_s": 0.75, "self_s": 0.75}
    # fine spans are folded onto their kept ancestor, not recorded
    assert [r["name"] for r in rec.records] == ["run", "op"]
    run = rec.records[0]
    assert run["parent"] == rec.records[1]["id"]
    assert set(run["folded"]) == {"switch", "emit"}
    assert rec.covered_s() == 7.0


def test_wrapped_scheme_leaves_counters_identical(monkeypatch):
    from repro.apps.spellcheck import SpellConfig, run_spellchecker
    from repro.runtime.kernel import Kernel

    config = SpellConfig(m=1, n=1, scale=0.01)
    plain, plain_out = run_spellchecker(4, "SP", config)
    monkeypatch.setattr(Kernel, "run", Kernel.run)  # restored afterwards
    rec = SpanRecorder()
    sim: dict = {}
    layers.install_runtime(rec, sim)
    traced, traced_out = run_spellchecker(4, "SP", config)
    assert traced.counters.snapshot() == plain.counters.snapshot()
    assert traced.steps == plain.steps and traced_out == plain_out
    totals = rec.totals()
    assert totals["core.switch.SP"]["count"] == plain.counters.context_switches
    assert sim == layers.sim_totals(plain.counters.snapshot(), plain.steps)


def _tiny(monkeypatch, workload):
    monkeypatch.setattr(jobs, "make_workloads",
                        lambda: {workload.name: workload})


def _spell(cls=jobs.SpellWorkload):
    return cls("spell-switchy", "tiny", m=1, n=1, scale=0.01,
               points=(("SP", 8),))


def test_benchmark_json_names_every_emitted_metric(monkeypatch, tmp_path):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == suite.END_TO_END_UNITS
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_layers == layers.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        jobs.make_workloads())
    from repro.runtime.kernel import Kernel

    monkeypatch.setattr(Kernel, "run", Kernel.run)  # the traced pass wraps it
    for trace, units in ((False, declared), (True, declared_layers)):
        _tiny(monkeypatch, _spell())
        doc = suite.run_workload("spell-switchy", 1, 0.01, trace,
                                 tmp_path / "out.json")
        assert doc["correct"] and doc["failed"] == 0
        assert set(doc["metrics"]) == set(units)
        for name, entry in doc["metrics"].items():
            assert NAME.match(name)
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], float)


def test_forced_output_mismatch_raises_fail_ratio(monkeypatch, tmp_path):
    class Broken(jobs.SpellWorkload):
        def setup(self, ctx):
            super().setup(ctx)
            self.expected += b"x"     # every timed output now mismatches

    _tiny(monkeypatch, _spell(Broken))
    doc = suite.run_workload("spell-switchy", 1, 0.01, False,
                             tmp_path / "out.json")
    assert not doc["correct"]
    assert doc["attempted"] >= 1 and doc["fail_ratio"] == 1.0
    assert "output differs from the oracle" in doc["failures"][0]


def test_timing_lines_are_stripped():
    text = ("Table 2\n(fig11 computed in 1.2s)\n"
            "engine: 6 points — 0 cached (0%), 6 executed, 0 failed "
            "[jobs=2]\nrow")
    assert jobs.strip_timing(text) == "Table 2\nrow"


def test_missing_checkout_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(suite, "SRC", tmp_path / "src")
    assert suite.main(["--workload", "spell-switchy"]) == 2
    assert "not found" in capsys.readouterr().err
