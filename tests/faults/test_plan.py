"""FaultPlan parsing, seeded generation and serialisation."""

import pytest

from repro.faults import plan as plan_module
from repro.faults.plan import (
    FAULT_KINDS,
    SITE_OF,
    FaultPlan,
    FaultSpec,
    plan_from_arg,
)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec("register")
        assert spec.at == 1
        assert spec.arg is None
        assert spec.site == "save"

    def test_every_kind_has_a_site(self):
        assert set(SITE_OF) == set(FAULT_KINDS)
        for kind in FAULT_KINDS:
            assert FaultSpec(kind).site in (
                "save", "restore", "store", "enqueue")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor")

    def test_nonpositive_trigger_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            FaultSpec("register", at=0)

    def test_describe(self):
        assert FaultSpec("wim", at=3).describe() == "wim@3"
        assert FaultSpec("register", at=2, arg=5).describe() == \
            "register@2:5"


class TestParse:
    def test_single(self):
        plan = FaultPlan.parse("register@3")
        assert plan.specs == (FaultSpec("register", at=3),)

    def test_multiple_with_args(self):
        plan = FaultPlan.parse("register@3:0, store_fail@2", seed=7)
        assert plan.seed == 7
        assert plan.specs == (FaultSpec("register", at=3, arg=0),
                              FaultSpec("store_fail", at=2))

    def test_bare_kind_means_first_occurrence(self):
        assert FaultPlan.parse("cwp").specs == (FaultSpec("cwp", at=1),)

    def test_empty_text_is_empty_plan(self):
        plan = FaultPlan.parse("")
        assert plan.specs == ()
        assert not plan

    def test_bad_kind_propagates(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("meteor@1")

    def test_random_spec(self):
        plan = FaultPlan.parse("random:4", seed=11)
        assert len(plan.specs) == 4
        assert plan.seed == 11

    @pytest.mark.parametrize("count", [0, -2])
    def test_random_needs_at_least_one_fault(self, count, capsys):
        """``random:N`` with N < 1 would run fault-free: a usage error."""
        with pytest.raises(ValueError, match="N >= 1"):
            FaultPlan.parse("random:%d" % count)
        with pytest.raises(SystemExit) as info:
            plan_from_arg("random:%d" % count)
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            "error: --faults random:%d: random:N needs N >= 1, got %d\n"
            % (count, count))

    def test_plan_from_arg_none(self):
        assert plan_from_arg(None) is None
        assert plan_from_arg("") is None
        assert plan_from_arg("wim@2").specs == (FaultSpec("wim", at=2),)


class TestRandom:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random(7, count=6) == FaultPlan.random(7, count=6)

    def test_different_seed_different_plan(self):
        assert FaultPlan.random(7, count=6) != FaultPlan.random(8, count=6)

    def test_kinds_restriction(self, monkeypatch):
        monkeypatch.setattr(plan_module, "FAULT_KINDS", ("sched",))
        plan = FaultPlan.random(1, count=20)
        assert all(s.kind == "sched" for s in plan.specs)

    def test_triggers_in_horizon(self, monkeypatch):
        monkeypatch.setattr(FaultPlan, "HORIZON", 10)
        plan = FaultPlan.random(3, count=50)
        assert all(1 <= s.at <= 10 for s in plan.specs)


class TestPayloadRoundtrip:
    def test_roundtrip_exact(self):
        plan = FaultPlan.parse("register@3:0,wim@2,store_delay@1:500",
                               seed=42)
        assert FaultPlan.from_payload(plan.to_payload()) == plan

    def test_payload_is_json_plain(self):
        import json

        payload = FaultPlan.random(5, count=3).to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_describe_mentions_seed(self):
        assert "seed=42" in FaultPlan.parse("wim@1", seed=42).describe()
        assert "no faults" in FaultPlan(seed=1).describe()
