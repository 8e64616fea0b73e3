"""Fuzz campaigns and crash-corpus minimizations are bit-identical on
the batched loop and on the step-granular reference trampoline.

Every fuzz trial arms faults, the invariant audit, the watchdog and a
step budget, and every minimizer candidate replays such a run, so this
is the end-to-end differential for the hooks the batched loop carries:
the same trial outcomes, the same error messages and crash contexts,
and byte-identical raw, minimized and replayed crash bundles.
"""

import pathlib

import pytest

from repro.faults import load_bundle, minimize_bundle, run_fuzz
from tests.support.trampoline import trampoline_everywhere

SEED = 1993
TRIALS = 18
CORPUS = sorted((pathlib.Path(__file__).parent / "corpus")
                .glob("crash-*.json"))


@pytest.fixture(autouse=True, params=["batched"])
def execution_backend(request):
    """Run once on the ambient backend, so the directory-wide backend
    sweep does not repeat the comparison."""
    return request.param


def run_job(out):
    """The robustness job: a fixed campaign, then the corpus minimized."""
    report = run_fuzz(trials=TRIALS, seed=SEED, out_dir=out / "fuzz")
    minimized = [minimize_bundle(path, out_dir=out / "min")
                 for path in CORPUS]
    trials = [(t.index, t.workload, t.outcome, t.error_type, t.detail,
               t.bundle.name if t.bundle is not None else None)
              for t in report.trials]
    errors = [load_bundle(t.bundle)["error"]
              for t in report.trials if t.bundle is not None]
    results = [(r.path.name, r.original_specs, r.final_specs,
                r.original_steps, r.final_steps, r.candidates,
                r.reproductions, r.verified, r.log) for r in minimized]
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*.json"))}
    loops = {t.loop for t in report.trials if t.outcome == "survived"}
    return {"trials": trials, "errors": errors, "minimized": results,
            "files": files}, loops


def test_robustness_job_is_identical_on_both_loops(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        trampoline_everywhere(patch)
        reference, reference_loops = run_job(tmp_path / "reference")
    batched, batched_loops = run_job(tmp_path / "batched")
    assert (reference_loops, batched_loops) == ({"step"}, {"pure-batched"})
    outcomes = {t[2] for t in batched["trials"]}
    assert {"survived", "detected"} <= outcomes
    assert batched["trials"] == reference["trials"]
    assert batched["errors"] == reference["errors"]
    assert batched["minimized"] == reference["minimized"]
    assert sorted(batched["files"]) == sorted(reference["files"])
    for name, data in reference["files"].items():
        assert batched["files"][name] == data, name
