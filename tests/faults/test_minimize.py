"""The delta-debugging engine: generic reducers, the reproduction
signature, and end-to-end bundle minimization."""

import json

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    MinimizeError,
    load_bundle,
    minimize_bundle,
    run_workload,
)
from repro.faults.minimize import (
    ddmin,
    failure_signature,
    shrink_float,
    shrink_int,
)
from repro.errors import ReproError


@pytest.fixture(autouse=True, params=["batched"])
def execution_backend(request):
    """Run once on the ambient backend: faulted minimizations keep the
    pure batched loop, so skip the directory-wide backend sweep."""
    return request.param


class TestDdmin:
    def test_single_culprit_found(self):
        culprit = 7
        calls = []

        def test(subset):
            calls.append(tuple(subset))
            return culprit in subset

        assert ddmin(list(range(10)), test) == [culprit]

    def test_pair_of_culprits_in_different_halves(self):
        def test(subset):
            return 1 in subset and 8 in subset

        assert sorted(ddmin(list(range(10)), test)) == [1, 8]

    def test_everything_needed_stays(self):
        items = [1, 2, 3]
        assert sorted(ddmin(items, lambda s: sorted(s) == items)) \
            == items

    def test_nothing_needed_shrinks_to_empty(self):
        assert ddmin([1, 2, 3], lambda s: True) == []

    def test_single_item_input(self):
        assert ddmin([5], lambda s: 5 in s) == [5]
        assert ddmin([5], lambda s: True) == []

    def test_preserves_order(self):
        result = ddmin(list(range(20)), lambda s: {3, 11, 17} <= set(s))
        assert result == [3, 11, 17]


class TestShrinkers:
    def test_shrink_int_finds_threshold(self):
        assert shrink_int(1000, 1, lambda v: v >= 37) == 37

    def test_shrink_int_respects_floor(self):
        assert shrink_int(100, 10, lambda v: True) == 10

    def test_shrink_int_already_at_floor(self):
        assert shrink_int(5, 5, lambda v: pytest.fail("no probes")) == 5

    def test_shrink_int_no_improvement(self):
        assert shrink_int(8, 1, lambda v: v >= 8) == 8

    def test_shrink_float_converges(self):
        best = shrink_float(1.0, 0.01, lambda v: v >= 0.25)
        assert 0.25 <= best <= 0.26

    def test_shrink_float_takes_floor_when_it_reproduces(self):
        assert shrink_float(0.5, 0.01, lambda v: True) == 0.01


class TestSignature:
    def test_same_class_same_keys_matches(self):
        a = failure_signature("WindowIntegrityError",
                              {"step": 10, "thread": "T1", "cwp": 2})
        b = failure_signature("WindowIntegrityError",
                              {"step": 99, "thread": "T1", "cwp": 5})
        assert a == b

    def test_different_thread_differs(self):
        a = failure_signature("RuntimeFault", {"thread": "T1"})
        b = failure_signature("RuntimeFault", {"thread": "T2"})
        assert a != b

    def test_different_class_differs(self):
        a = failure_signature("DeadlockError", {"step": 1})
        b = failure_signature("LivelockError", {"step": 1})
        assert a != b

    def test_extra_context_key_differs(self):
        a = failure_signature("RuntimeFault", {"step": 1})
        b = failure_signature("RuntimeFault",
                              {"step": 1, "faults_fired": 2})
        assert a != b


CRASH_CONFIG = {
    "workload": "synthetic-fork-join", "scheme": "SNP",
    "n_windows": 6, "n_children": 3, "items": 12, "flush_hint": True,
    "verify_registers": True, "audit": True, "watchdog": 0,
}
CHAFF_PLAN = "sched@1,store_delay@2,retval@2,store_delay@7"


def crash_bundle(tmp_path, config=None, plan_text=CHAFF_PLAN):
    injector = FaultInjector(FaultPlan.parse(plan_text, seed=11))
    with pytest.raises(ReproError) as info:
        run_workload(dict(config or CRASH_CONFIG), faults=injector,
                     crash_dir=tmp_path)
    assert info.value.bundle_path is not None
    return info.value.bundle_path


class TestMinimizeBundle:
    def test_chaff_is_dropped_and_result_verified(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        result = minimize_bundle(path, out_dir=tmp_path / "min")
        assert result.original_specs == 4
        assert result.final_specs == 1
        assert result.verified
        plan = load_bundle(result.path)["fault_plan"]
        assert [s["kind"] for s in plan["specs"]] == ["retval"]

    def test_firing_point_shrinks_toward_one(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        result = minimize_bundle(path, out_dir=tmp_path / "min")
        spec = load_bundle(result.path)["fault_plan"]["specs"][0]
        assert spec["at"] <= 2

    def test_workload_schedule_shrinks(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        result = minimize_bundle(path, out_dir=tmp_path / "min")
        config = load_bundle(result.path)["config"]
        original = load_bundle(path)["config"]
        assert config["n_children"] <= original["n_children"]
        assert config["items"] <= original["items"]

    def test_provenance_names_the_original(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        result = minimize_bundle(path, out_dir=tmp_path / "min")
        mini = load_bundle(result.path)["minimization"]
        assert mini["original"]["file"] == path.name
        assert len(mini["original"]["sha256"]) == 64
        assert mini["candidates"] == result.candidates
        assert result.summary().startswith("WindowIntegrityError: 4 -> 1")

    def test_minimized_name_is_content_addressed(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        a = minimize_bundle(path, out_dir=tmp_path / "a")
        b = minimize_bundle(path, out_dir=tmp_path / "b")
        assert a.path.name == b.path.name
        assert a.path.name.endswith(".min.json")
        assert a.path.read_text() == b.path.read_text()

    def test_non_reproducing_bundle_is_rejected(self, tmp_path):
        path = crash_bundle(tmp_path / "orig")
        doc = json.loads(path.read_text())
        doc["error"]["type"] = "DeadlockError"  # forged identity
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(doc, indent=2, sort_keys=True))
        with pytest.raises(MinimizeError, match="does not reproduce"):
            minimize_bundle(forged, out_dir=tmp_path / "min")

    def test_minimize_cli_exit_code(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        path = crash_bundle(tmp_path / "orig")
        assert main(["minimize", str(path),
                     "--out", str(tmp_path / "min")]) == 0
        out = capsys.readouterr().out
        assert "4 -> 1 spec(s)" in out
        assert "verified" in out
