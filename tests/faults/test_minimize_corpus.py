"""The committed minimization seed corpus (tests/faults/corpus/):
every bundle replays bit-for-bit and delta-debugs down to <=2 specs.

The corpus is generated by ``corpus/regen.py`` — over-specified fault
plans (mostly chaff) whose failures each hinge on one or two specs.
This is the acceptance gate for the minimizer: chaff is dropped,
firing points and payloads shrink, and the minimized artifact is
itself a verified, replayable crash bundle.
"""

import pathlib

import pytest

from repro.faults import load_bundle, minimize_bundle, replay_bundle

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
BUNDLES = sorted(CORPUS_DIR.glob("crash-*.json"))


@pytest.fixture(autouse=True, params=["batched"])
def execution_backend(request):
    """Run once on the ambient backend: corpus bundles are faulted runs
    on the pure batched loop, so the directory-wide backend sweep would
    only replay everything twice."""
    return request.param


def test_corpus_is_populated():
    assert len(BUNDLES) >= 3, "seed corpus went missing"


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.name)
def test_corpus_bundle_is_multi_spec(path):
    bundle = load_bundle(path)
    assert len(bundle["fault_plan"]["specs"]) >= 2
    assert "core" in bundle["config"]


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.name)
def test_corpus_bundle_replays_bit_for_bit(path, tmp_path):
    matched, __, detail = replay_bundle(path, workdir=tmp_path)
    assert matched, "%s: %s" % (path.name, detail)


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.name)
def test_corpus_bundle_minimizes_to_at_most_two_specs(path, tmp_path):
    original = load_bundle(path)
    result = minimize_bundle(path, out_dir=tmp_path)
    assert result.final_specs <= 2
    assert result.final_specs < result.original_specs
    assert result.verified, "minimized bundle failed replay"
    assert result.error_type == original["error"]["type"]
    mini = result.bundle["minimization"]
    assert mini["original"]["file"] == path.name
    assert mini["original"]["specs"] == result.original_specs
    assert mini["candidates"] >= mini["reproductions"] > 0
    assert mini["log"], "no reductions recorded for %s" % path.name
