"""Reference register-window file: the straightforward nested layout.

This is the pre-optimization :class:`WindowFile` storage model — one
``List[List[int]]`` per bank, cyclic geometry via ``%`` arithmetic and
the WIM as a plain set — retained as an executable specification.  The
property suite (``tests/windows/test_window_file_reference.py``) drives
it and the flat fast-path file through identical randomized operation
sequences (including WIM wraparound across window 0) and requires
bit-identical observable state after every step.

It is deliberately slow and obvious; never use it on a hot path.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.windows.errors import WindowGeometryError
from repro.windows.window_file import MIN_WINDOWS, REGS_PER_BANK


class ReferenceWindowFile:
    """Nested-list register-window file, semantics-only."""

    def __init__(self, n_windows: int):
        if n_windows < MIN_WINDOWS:
            raise WindowGeometryError(
                "need at least %d windows, got %d" % (MIN_WINDOWS, n_windows))
        self.n_windows = n_windows
        self._ins: List[List[int]] = [[0] * REGS_PER_BANK
                                      for _ in range(n_windows)]
        self._locals: List[List[int]] = [[0] * REGS_PER_BANK
                                         for _ in range(n_windows)]
        self.global_regs: List[int] = [0] * REGS_PER_BANK
        self.cwp = 0
        self._wim: Set[int] = set()

    # -- cyclic geometry ------------------------------------------------

    def above(self, w: int) -> int:
        return (w - 1) % self.n_windows

    def below(self, w: int) -> int:
        return (w + 1) % self.n_windows

    # -- WIM -------------------------------------------------------------

    @property
    def wim(self) -> Set[int]:
        return set(self._wim)

    def set_wim(self, invalid: Iterable[int]) -> None:
        wim = set(invalid)
        for w in wim:
            self._check_index(w)
        self._wim = wim

    def set_wim_only(self, w: int) -> None:
        self._check_index(w)
        self._wim = {w}

    def mark_invalid(self, w: int) -> None:
        self._check_index(w)
        self._wim.add(w)

    def mark_valid(self, w: int) -> None:
        self._wim.discard(w)

    def is_invalid(self, w: int) -> bool:
        return w in self._wim

    # -- register access (current window) --------------------------------

    def read_in(self, i: int):
        return self._ins[self.cwp][i]

    def write_in(self, i: int, value) -> None:
        self._ins[self.cwp][i] = value

    def read_local(self, i: int):
        return self._locals[self.cwp][i]

    def write_local(self, i: int, value) -> None:
        self._locals[self.cwp][i] = value

    def read_out(self, i: int):
        # outs of w are physically the ins of the window above
        return self._ins[self.above(self.cwp)][i]

    def write_out(self, i: int, value) -> None:
        self._ins[self.above(self.cwp)][i] = value

    def read_global(self, i: int):
        return self.global_regs[i]

    def write_global(self, i: int, value) -> None:
        if i == 0:
            return
        self.global_regs[i] = value

    # -- whole-window access ---------------------------------------------

    def ins_of(self, w: int) -> List[int]:
        self._check_index(w)
        return self._ins[w]

    def locals_of(self, w: int) -> List[int]:
        self._check_index(w)
        return self._locals[w]

    def outs_of(self, w: int) -> List[int]:
        return self._ins[self.above(w)]

    def _check_index(self, w: int) -> None:
        if not 0 <= w < self.n_windows:
            raise WindowGeometryError(
                "window index %r out of range [0, %d)" % (w, self.n_windows))

    def __repr__(self) -> str:
        return "ReferenceWindowFile(n=%d, cwp=%d, wim=%s)" % (
            self.n_windows, self.cwp, sorted(self._wim))
