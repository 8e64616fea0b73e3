"""Occupancy timelines: sampling, analysis and rendering."""

import pytest

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.metrics.observer import RunObserver
from repro.metrics.tracing import OccupancyTimeline
from repro.windows.occupancy import FRAME


def _run(scheme, n_windows=8, items=40, max_samples=4096):
    """A producer/consumer run's timeline, decimated past
    ``max_samples`` (the production cap, or a smaller one)."""
    kernel = Kernel(n_windows=n_windows, scheme=scheme)
    timeline = RunObserver().attach(kernel).timeline
    timeline.MAX_SAMPLES = max_samples
    stream = kernel.stream(2, "s")

    def producer(s):
        for i in range(items):
            yield Call(_leaf, i)
            yield Write(s, bytes([i % 251]))
        yield CloseStream(s)
        return None

    def _leaf(i):
        yield Tick(2)
        return i

    def consumer(s):
        total = 0
        while True:
            data = yield Read(s, 4)
            if not data:
                return total
            total += sum(data)
            yield Call(_leaf, len(data))

    kernel.spawn(producer, stream, name="p")
    kernel.spawn(consumer, stream, name="c")
    kernel.run()
    return timeline


class TestSampling:
    def test_samples_taken_per_dispatch(self):
        timeline = _run("SP")
        assert len(timeline.samples) > 10
        assert timeline.n_windows == 8
        for sample in timeline.samples:
            assert len(sample.cells) == 8

    def test_max_samples_respected(self):
        timeline = _run("SP", max_samples=5)
        assert 0 < len(timeline.samples) <= 5
        assert timeline.dropped > 0
        assert "dropped" in timeline.render()

    def test_decimation_spans_whole_run(self):
        """Overflowing the budget decimates in place (keep every other
        sample, double the stride) instead of truncating, so the last
        retained sample is from the run's tail, not its head."""
        full = _run("SP", max_samples=4096)
        small = _run("SP", max_samples=8)
        assert len(small.samples) <= 8
        # All snapshots are accounted for: kept + dropped == taken.
        assert len(small.samples) + small.dropped == len(full.samples)
        # End-to-end coverage: the decimated timeline still reaches
        # (close to) the final dispatch of the run.
        last_full = full.samples[-1].cycle
        last_small = small.samples[-1].cycle
        assert last_small >= last_full * 0.7

    def test_decimation_keeps_even_spacing(self):
        full = _run("SP", max_samples=4096)
        small = _run("SP", max_samples=8)
        # The retained samples are a strided subsequence of the full
        # ones: every kept cycle also appears in the full timeline.
        full_cycles = [s.cycle for s in full.samples]
        kept = [s.cycle for s in small.samples]
        assert all(c in full_cycles for c in kept)
        assert kept == sorted(kept)


class TestAnalysis:
    def test_sharing_keeps_more_frames_resident(self):
        """The visual signature of sharing: suspended threads' frames
        stay in the file, so mean live-frame occupancy is higher than
        under NS (which wipes the file at every switch)."""
        ns = _run("NS")
        sp = _run("SP")
        assert sp.occupancy_ratio() > ns.occupancy_ratio()

    def test_occupancy_ratio_bounds(self):
        timeline = _run("SNP")
        assert 0.0 < timeline.occupancy_ratio() < 1.0

    def test_windows_shared_by_multiple_threads_over_time(self):
        timeline = _run("SNP", n_windows=5)
        assert any(len({s.tids[w] for s in timeline.samples
                        if s.kinds[w] == FRAME}) >= 2
                   for w in range(5))

    @pytest.mark.parametrize("max_samples", [8, 4096])
    @pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
    def test_per_state_analyses_match_per_sample_definitions(
            self, scheme, max_samples):
        """Churn, occupancy and the rendered rows are computed
        once per distinct map state; they equal the definitions
        evaluated sample by sample."""
        timeline = _run(scheme, n_windows=5, max_samples=max_samples)
        samples = timeline.samples
        cells = [s.cells for s in samples]
        changed = sum(g0 != g1 for prev, cur in zip(cells, cells[1:])
                      for g0, g1 in zip(prev, cur))
        assert timeline.churn() == changed / ((len(samples) - 1) * 5)
        frames = sum(s.kinds.count(FRAME) for s in samples)
        assert timeline.occupancy_ratio() == frames / (len(samples) * 5)
        columns = ([cells[int(i * len(cells) / 4)] for i in range(4)]
                   if len(cells) > 4 else cells)
        assert timeline.render(max_columns=4).splitlines()[:5] == [
            "W%-2d %s" % (w, "".join(c[w] for c in columns))
            for w in range(5)]

    def test_empty_timeline_safe(self):
        timeline = OccupancyTimeline()
        assert timeline.occupancy_ratio() == 0.0
        assert timeline.churn() == 0.0
        assert timeline.render() == "(no samples)"


class TestRendering:
    def test_render_shape(self):
        timeline = _run("SP", n_windows=6)
        text = timeline.render(max_columns=20)
        lines = text.splitlines()
        assert lines[0].startswith("W0 ")
        assert lines[5].startswith("W5 ")
        body = lines[0][4:]
        assert len(body) <= 20

    def test_render_contains_thread_glyphs(self):
        timeline = _run("SP")
        text = timeline.render()
        assert "0" in text or "1" in text
        assert "." in text
