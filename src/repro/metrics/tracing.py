"""Window-occupancy timelines: who owned each physical window, over
time.

The paper's Figures 5–9 are snapshots of the window file as threads
come and go; this module records such snapshots at every context
switch and renders the whole run as a timeline — one row per physical
window, one column per scheduling quantum — which makes the difference
between the schemes directly visible (NS wipes the file every column;
SP's columns barely change).

A :class:`repro.metrics.observer.RunObserver` owns one (``attach`` it
to a kernel): the kernel takes one snapshot per dispatch, on every
execution loop, without tracing.
A snapshot copies the window map's raw kind and owner columns; the
glyphs are only rendered when a sample's ``cells`` are read.  The
analyses work per distinct window-map state (a run revisits few), so
churn, occupancy and the rendered rows are computed once per
state or pair of consecutive states, not once per sample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import ne
from typing import Dict, List, Optional, Tuple

from repro.windows.occupancy import FRAME, FREE, RESERVED

#: cell glyphs: thread ids 0..9 then letters; free and reserved
_FREE_GLYPH = "."
_RESERVED_GLYPH = "#"
_PRW_GLYPHS = "abcdefghijklmnopqrstuvwxyz"
_FRAME_GLYPHS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _glyph(kind: str, tid: Optional[int]) -> str:
    if kind == FREE:
        return _FREE_GLYPH
    if kind == RESERVED:
        if tid is None:
            return _RESERVED_GLYPH
        return _PRW_GLYPHS[tid % len(_PRW_GLYPHS)]
    return _FRAME_GLYPHS[tid % len(_FRAME_GLYPHS)]


@dataclass
class TimelineSample:
    """Occupancy of every window at one instant."""

    cycle: int
    running_tid: int
    kinds: Tuple[str, ...]            # WindowMap kind per physical window
    tids: Tuple[Optional[int], ...]   # WindowMap owner per physical window

    @property
    def cells(self) -> List[str]:
        """One glyph per physical window."""
        return [_glyph(k, t) for k, t in zip(self.kinds, self.tids)]


class OccupancyTimeline:
    """Records window-map snapshots; renders them as a timeline.

    Long runs are decimated in place rather than truncated: when the
    sample list fills, every other sample is discarded and the stride
    doubles, so the retained samples always span the whole run (at
    progressively coarser resolution) instead of only its beginning.
    """

    #: samples kept before the list is decimated
    MAX_SAMPLES = 4096

    def __init__(self):
        self.samples: List[TimelineSample] = []
        self.n_windows: Optional[int] = None
        self._dropped = 0
        self._stride = 1
        self._since_kept = 0
        #: ``_distinct``'s result, dropped when a snapshot is kept
        self._states: Optional[Tuple[List[int], List[List[str]],
                                     List[tuple]]] = None

    # -- kernel hook -----------------------------------------------------------

    def snapshot(self, cpu, running_tid: int, cycle: int) -> None:
        if self._since_kept:
            # Mid-stride arrival: drop it, like its decimated peers.
            self._since_kept = (self._since_kept + 1) % self._stride
            self._dropped += 1
            return
        self._since_kept = (self._since_kept + 1) % self._stride
        if len(self.samples) >= self.MAX_SAMPLES:
            # Decimate in place: keep every other sample, double the
            # stride.  Dropped samples stay counted.
            self._dropped += len(self.samples) - len(self.samples[::2])
            self.samples = self.samples[::2]
            self._stride *= 2
            self._since_kept = 1 % self._stride
        wmap = cpu.map
        self.n_windows = wmap.n_windows
        self.samples.append(TimelineSample(
            cycle, running_tid, tuple(wmap._kind), tuple(wmap._tid)))
        self._states = None

    # -- analysis ----------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Snapshots not retained (decimated or skipped mid-stride)."""
        return self._dropped

    def _distinct(self) -> Tuple[List[int], List[List[str]], List[tuple]]:
        """Each kept sample's state index, and per distinct state its
        glyph row and its kind column."""
        if self._states is None:
            index: Dict[tuple, int] = {}
            seq: List[int] = []
            rows: List[List[str]] = []
            kinds_of: List[tuple] = []
            for sample in self.samples:
                kinds = sample.kinds
                key = (kinds, sample.tids)
                i = index.get(key)
                if i is None:
                    i = index[key] = len(rows)
                    rows.append(sample.cells)
                    kinds_of.append(kinds)
                seq.append(i)
            self._states = (seq, rows, kinds_of)
        return self._states

    def occupancy_ratio(self) -> float:
        """Mean fraction of windows holding live frames."""
        n = len(self.samples)
        if not n or not self.n_windows:
            return 0.0
        seq, __, kinds_of = self._distinct()
        frames = sum(kinds_of[i].count(FRAME) * times
                     for i, times in Counter(seq).items())
        return frames / (n * self.n_windows)

    def churn(self) -> float:
        """Mean fraction of windows whose occupant changed between
        consecutive samples — low churn is the visual signature of the
        sharing schemes."""
        n = len(self.samples)
        if n < 2 or not self.n_windows:
            return 0.0
        seq, rows, __ = self._distinct()
        changed = 0
        # distinct owners can share a glyph (tids 36 apart), and churn
        # counts what the rendered timeline shows
        for (a, b), times in Counter(zip(seq, seq[1:])).items():
            if a != b:
                changed += times * sum(map(ne, rows[a], rows[b]))
        return changed / ((n - 1) * self.n_windows)

    # -- rendering ----------------------------------------------------------------

    def render(self, max_columns: int = 100) -> str:
        """Rows = windows (W0 on top), columns = samples, then a
        legend."""
        if not self.samples or not self.n_windows:
            return "(no samples)"
        seq, rows, __ = self._distinct()
        if len(seq) > max_columns:
            step = len(seq) / max_columns
            seq = [seq[int(i * step)] for i in range(max_columns)]
        columns = [rows[i] for i in seq]
        lines = []
        for w in range(self.n_windows):
            row = "".join(cells[w] for cells in columns)
            lines.append("W%-2d %s" % (w, row))
        lines.append("")
        lines.append("    digits/letters=thread frames  "
                     "lowercase=PRW  #=reserved  .=free  "
                     "(%d samples%s)"
                     % (len(self.samples),
                        ", %d dropped" % self._dropped
                        if self._dropped else ""))
        return "\n".join(lines)
