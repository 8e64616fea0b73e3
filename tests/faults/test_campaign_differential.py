"""Fuzz campaigns and crash-corpus minimizations are bit-identical on
the batched loop and on the step-granular reference trampoline, and
the batched run matches a committed golden.

Every fuzz trial arms faults, the invariant audit, the watchdog and a
step budget, and every minimizer candidate replays such a run, so this
is the end-to-end differential for the hooks the batched loop carries:
the same trial outcomes, the same error messages and crash contexts,
and byte-identical raw, minimized and replayed crash bundles.

The two loops share the minimizer, so a change to it moves both sides
alike; the golden pins its outcome on its own: every trial outcome,
every minimization result (with its candidate and reproduction counts)
and the SHA-256 of every bundle file the job writes.  Regenerate (only
when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/faults/test_campaign_differential.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import (
    load_bundle,
    minimize_bundle,
    replay_bundle,
    run_fuzz,
)
from tests.support.goldens import assert_golden
from tests.support.trampoline import trampoline_everywhere

SEED = 1993
TRIALS = 18
CORPUS = sorted((pathlib.Path(__file__).parent / "corpus")
                .glob("crash-*.json"))
GOLDEN = pathlib.Path(__file__).parent / "goldens" / "robustness_job.json"


@pytest.fixture(autouse=True, params=["batched"])
def loop_label(request):
    return request.param  # keeps the [batched] test ids


def run_job(out):
    """The robustness job: a fixed campaign, then the corpus minimized;
    every minimized bundle is then replayed into ``out/replay``."""
    report = run_fuzz(trials=TRIALS, seed=SEED, out_dir=out / "fuzz")
    minimized = [minimize_bundle(path, out_dir=out / "min")
                 for path in CORPUS]
    for path in sorted(out.rglob("*.min.json")):
        matched, __, detail = replay_bundle(path, workdir=out / "replay")
        assert matched, detail
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


@pytest.fixture(scope="module")
def batched_job(tmp_path_factory):
    return run_job(tmp_path_factory.mktemp("batched"))


def test_robustness_job_is_identical_on_both_loops(tmp_path, monkeypatch,
                                                   batched_job):
    with monkeypatch.context() as patch:
        trampoline_everywhere(patch)
        reference, reference_loops = run_job(tmp_path / "reference")
    batched, batched_loops = batched_job
    assert (reference_loops, batched_loops) == ({"step"}, {"pure-batched"})
    outcomes = {t[2] for t in batched["trials"]}
    assert {"survived", "detected"} <= outcomes
    assert batched["trials"] == reference["trials"]
    assert batched["errors"] == reference["errors"]
    assert batched["minimized"] == reference["minimized"]
    assert sorted(batched["files"]) == sorted(reference["files"])
    for name, data in reference["files"].items():
        assert batched["files"][name] == data, name


def test_robustness_job_matches_golden(batched_job):
    job, __ = batched_job
    kinds = {"raw", "min", "replay"}
    assert kinds == {("raw" if "/raw/" in name else
                      "min" if name.endswith(".min.json") else
                      "replay") for name in job["files"]}
    golden = {
        "trials": [list(t) for t in job["trials"]],
        "minimized": [list(r) for r in job["minimized"]],
        "sha256": {name: hashlib.sha256(data).hexdigest()
                   for name, data in job["files"].items()},
    }
    assert_golden(GOLDEN, json.dumps(golden, indent=1, sort_keys=True)
                  + "\n")
