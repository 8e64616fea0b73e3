"""Verifier front-end: CFG structure, depth facts, def-use hazards,
and the exact/bounded/fault prediction ladder."""

import pytest

from repro.analysis import (
    UNBOUNDED,
    AnalysisError,
    build_cfg,
    check_program,
    compute_bounds,
    verify_corpus,
    verify_program,
)
from repro.analysis.verifier import ThreadSpec
from repro.isa import assemble

BALANCED = """
start:
    call fn
    nop
    halt
fn:
    save
    mov  %i0, %i0
    ret
dead:
    nop
    halt
"""


class TestCFG:
    def test_functions_and_unreachable(self):
        cfg = build_cfg(assemble(BALANCED))
        names = sorted(fn.name for fn in cfg.functions.values())
        assert names == ["fn", "start"]
        assert cfg.unreachable  # the `dead` block
        assert not cfg.recursive_entries()

    def test_recursion_detected(self):
        source = """
        start:
            call fn
            nop
            halt
        fn:
            save
            call fn
            nop
            ret
        """
        cfg = build_cfg(assemble(source))
        program = assemble(source)
        entry = program.labels["fn"]
        assert cfg.recursive_entries() == {entry}
        bounds = compute_bounds(cfg)
        assert bounds.thread_bound(program.labels["start"]) is UNBOUNDED

    def test_depth_bound_composes_through_calls(self):
        source = """
        start:
            call outer
            nop
            halt
        outer:
            save
            call inner
            nop
            ret
        inner:
            save
            mov %i0, %i0
            ret
        """
        program = assemble(source)
        bounds = compute_bounds(build_cfg(program))
        # start (1) -> outer save (2) -> inner save (3)
        assert bounds.thread_bound(program.labels["start"]) == 3


class TestFindings:
    def test_fall_off_end(self):
        report = verify_program("start:\n    nop\n", name="p")
        assert [f.rule for f in report.errors] == ["fall-off-end"]

    def test_depth_underflow_at_entry(self):
        report = verify_program("start:\n    restore\n    halt\n",
                                name="p")
        assert "depth-underflow" in [f.rule for f in report.errors]

    def test_unbalanced_return(self):
        source = """
        start:
            call fn
            nop
            halt
        fn:
            save
            save
            ret
        """
        report = verify_program(source, name="p")
        assert "unbalanced-return" in [f.rule for f in report.findings]

    def test_stale_read_after_save(self):
        source = """
        start:
            call fn
            nop
            halt
        fn:
            save
            add  %l2, 1, %o0
            ret
        """
        report = verify_program(source, name="p")
        stale = [f for f in report.findings if f.rule == "stale-read"]
        assert stale and "%l2" in stale[0].message

    def test_entry_outs_are_residue(self):
        report = verify_program("start:\n    add %o3, 1, %o0\n    halt\n",
                                name="p")
        assert [f.rule for f in report.findings
                if f.severity == "warning"] == ["stale-read"]

    def test_missing_entry_label(self):
        report = verify_program("start:\n    halt\n", name="p",
                                threads=[ThreadSpec("absent")])
        assert "missing-entry" in [f.rule for f in report.errors]

    def test_check_program_raises(self):
        with pytest.raises(AnalysisError) as info:
            check_program("start:\n    nop\n", name="p")
        assert info.value.report.errors


class TestPredictions:
    def test_exact_mode_on_clean_program(self):
        report = verify_program(BALANCED, name="p",
                                threads=[ThreadSpec()])
        prediction = report.meta["prediction"]
        assert prediction["mode"] == "exact"
        assert prediction["counters"]["saves"] == 1
        assert prediction["threads"][0]["max_depth"] == 2

    def test_bounded_mode_when_control_depends_on_residue(self):
        source = """
        start:
            call fn
            nop
            halt
        fn:
            save
            cmp  %l0, 0
            be   out
            nop
        out:
            ret
        """
        report = verify_program(source, name="p",
                                threads=[ThreadSpec()])
        assert report.meta["prediction"]["mode"] == "bounded"
        assert report.meta["thread_depth_bounds"]["start"] == 2

    def test_fault_mode_is_an_error(self):
        """A structurally-clean livelock exhausts the abstract step
        budget — a guaranteed dynamic fault, reported as an error."""
        source = """
        start:
            ba   start
            nop
        """
        report = verify_program(source, name="p",
                                threads=[ThreadSpec()], max_steps=1_000)
        assert report.meta["prediction"]["mode"] == "fault"
        assert "guest-fault" in [f.rule for f in report.errors]

    def test_wraparound_predicted(self):
        """DEEP_SUM on 8 windows forces saves into window 7 — the WIM
        wraparound the paper's Figure 4 describes."""
        from repro.analysis.verifier import corpus_cases
        case = next(c for c in corpus_cases() if c.name == "deep_sum")
        report = verify_program(case.source, name=case.name,
                                threads=case.threads, pokes=case.pokes,
                                n_windows=8, scheme="SP")
        assert report.meta["prediction"]["wraparounds"] > 0


def test_corpus_is_clean_everywhere():
    for scheme in ("NS", "SNP", "SP"):
        report = verify_corpus(n_windows=8, scheme=scheme)
        assert report.clean, [f.describe() for f in report.findings]
        modes = {name: info["prediction_mode"]
                 for name, info in report.meta["programs"].items()}
        assert set(modes.values()) == {"exact"}, modes
