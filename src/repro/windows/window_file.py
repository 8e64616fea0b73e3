"""The physical register file: cyclic overlapping windows, CWP and WIM.

The file holds ``n_windows`` windows.  Each window owns eight *in* and
eight *local* registers.  The eight *out* registers of window ``w`` are
physically the *in* registers of the window above (``w - 1`` mod n),
because a ``save`` moves the CWP one window up and the caller's outs
become the callee's ins.  Eight *global* registers are shared by all
windows.

The Window Invalid Mask (WIM) is a set of window indices; executing
``save`` into an invalid window raises an overflow trap, executing
``restore`` into one raises an underflow trap.  Trap *handling* lives in
the management schemes (:mod:`repro.core`); this module only detects
the conditions.

Storage layout (the simulator fast path): all in/local banks live in
one flat Python list of ``n_windows * 16`` slots — window ``w``'s ins
at ``[16w, 16w+8)``, its locals at ``[16w+8, 16w+16)`` — so the
schemes' window spills, restores and underflow shuffle are single slice
copies (spilled frames reuse the buffers in ``_frame_pool``) and
register access is one flat index instead of two list hops.  Cyclic
geometry (``above``/``below``, the in/out bank offsets) is served from
tables precomputed at construction; the WIM is a bytearray bitmap with a
set-valued ``wim`` property kept for introspection (crash bundles,
invariant checks, ``repr``).  The schemes rebuild it in one slice copy
from ``_wim_spans``, a table of n + 1 patterns built once per window
count and shared by every file of that size: row ``L`` is
``(bytes(L) + b"\x01" * (n - L)) * 2``, so its slice
``[n - start : 2n - start]`` marks exactly the cyclic run of ``L``
windows from ``start`` valid.  Registers hold arbitrary Python objects,
not just ints — the kernel stores signature tuples in them — which is
why the flat storage is a list rather than an ``array``.

``ins_of``/``locals_of``/``outs_of`` return cached live
:class:`RegisterBank` views over the flat storage, preserving the
aliasing contract ``outs_of(w) is ins_of(above(w))``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.windows.backing_store import Frame
from repro.windows.errors import WindowGeometryError

REGS_PER_BANK = 8

#: Smallest window file that supports the basic algorithm (one reserved
#: window plus at least two frames so overflow never targets the CWP).
MIN_WINDOWS = 3

#: n -> the WIM span patterns of an n-window file (see the module
#: docstring), shared by every ``WindowFile`` of that size
_WIM_SPANS: Dict[int, Tuple[bytes, ...]] = {}


class RegisterBank:
    """Live eight-register view over one bank of the flat register file.

    Mutations through the view hit the underlying storage, so the
    physical in/out overlap stays visible: the object returned by
    ``outs_of(w)`` *is* the object returned by ``ins_of(above(w))``.
    """

    __slots__ = ("_regs", "_base")

    def __init__(self, regs: list, base: int):
        self._regs = regs
        self._base = base

    def __getitem__(self, i: int):
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("register index %d out of range" % i)
        return self._regs[self._base + i]

    def __setitem__(self, i: int, value) -> None:
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("register index %d out of range" % i)
        self._regs[self._base + i] = value

    def __iter__(self):
        base = self._base
        return iter(self._regs[base:base + REGS_PER_BANK])

    def __repr__(self) -> str:
        base = self._base
        return "RegisterBank(%r)" % (self._regs[base:base + REGS_PER_BANK],)


class WindowFile:
    """Cyclic register-window file with in/out/local overlap."""

    __slots__ = ("n_windows", "global_regs", "cwp", "_regs", "_wim",
                 "_above", "_below", "_in_base", "_out_base",
                 "_in_views", "_local_views", "_frame_pool",
                 "_wim_spans")

    def __init__(self, n_windows: int):
        if n_windows < MIN_WINDOWS:
            raise WindowGeometryError(
                "need at least %d windows, got %d" % (MIN_WINDOWS, n_windows))
        self.n_windows = n_windows
        n = n_windows
        self._regs: List[int] = [0] * (n * 2 * REGS_PER_BANK)
        self.global_regs: List[int] = [0] * REGS_PER_BANK
        self.cwp = 0
        # -- precomputed cyclic geometry --
        self._above = [(w - 1) % n for w in range(n)]
        self._below = [(w + 1) % n for w in range(n)]
        self._in_base = [w * 2 * REGS_PER_BANK for w in range(n)]
        self._out_base = [self._in_base[self._above[w]] for w in range(n)]
        self._in_views = [RegisterBank(self._regs, self._in_base[w])
                          for w in range(n)]
        self._local_views = [
            RegisterBank(self._regs, self._in_base[w] + REGS_PER_BANK)
            for w in range(n)]
        # -- WIM bitmap (index w nonzero == window w invalid) --
        self._wim = bytearray(n)
        spans = _WIM_SPANS.get(n)
        if spans is None:
            spans = _WIM_SPANS[n] = tuple(
                (bytes(run) + b"\x01" * (n - run)) * 2
                for run in range(n + 1))
        self._wim_spans = spans
        self._frame_pool: List[Frame] = []

    # -- cyclic geometry ------------------------------------------------

    def above(self, w: int) -> int:
        """The window above ``w`` (the callee / stack-growth direction)."""
        return self._above[w]

    def below(self, w: int) -> int:
        """The window below ``w`` (the caller direction)."""
        return self._below[w]

    # -- WIM -------------------------------------------------------------

    @property
    def wim(self) -> Set[int]:
        """The invalid windows as a set (introspection; not the hot path)."""
        return {w for w, bit in enumerate(self._wim) if bit}

    @wim.setter
    def wim(self, invalid: Iterable[int]) -> None:
        self.set_wim(invalid)

    def set_wim(self, invalid: Iterable[int]) -> None:
        wim = set(invalid)
        for w in wim:
            self._check_index(w)
        bitmap = self._wim
        for w in range(self.n_windows):
            bitmap[w] = 0
        for w in wim:
            bitmap[w] = 1

    def set_wim_only(self, w: int) -> None:
        """Mark exactly window ``w`` invalid (the NS scheme's single
        reserved window), everything else valid."""
        self._check_index(w)
        n = self.n_windows
        # the n - 1 valid windows run from start = w + 1
        offset = n - 1 - w
        self._wim[:] = self._wim_spans[n - 1][offset:offset + n]

    def mark_invalid(self, w: int) -> None:
        self._check_index(w)
        self._wim[w] = 1

    def mark_valid(self, w: int) -> None:
        if 0 <= w < self.n_windows:
            self._wim[w] = 0

    def is_invalid(self, w: int) -> bool:
        return self._wim[w] != 0

    # -- register access (current window) --------------------------------

    def read_in(self, i: int):
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("in register %d out of range" % i)
        return self._regs[self._in_base[self.cwp] + i]

    def write_in(self, i: int, value) -> None:
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("in register %d out of range" % i)
        self._regs[self._in_base[self.cwp] + i] = value

    def read_local(self, i: int):
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("local register %d out of range" % i)
        return self._regs[self._in_base[self.cwp] + REGS_PER_BANK + i]

    def write_local(self, i: int, value) -> None:
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("local register %d out of range" % i)
        self._regs[self._in_base[self.cwp] + REGS_PER_BANK + i] = value

    def read_out(self, i: int):
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("out register %d out of range" % i)
        return self._regs[self._out_base[self.cwp] + i]

    def write_out(self, i: int, value) -> None:
        if not 0 <= i < REGS_PER_BANK:
            raise IndexError("out register %d out of range" % i)
        self._regs[self._out_base[self.cwp] + i] = value

    def read_global(self, i: int):
        return self.global_regs[i]

    def write_global(self, i: int, value) -> None:
        if i == 0:
            return  # %g0 is hardwired to zero
        self.global_regs[i] = value

    # -- whole-window access (trap handlers, context switches) -----------

    def ins_of(self, w: int) -> RegisterBank:
        self._check_index(w)
        return self._in_views[w]

    def locals_of(self, w: int) -> RegisterBank:
        self._check_index(w)
        return self._local_views[w]

    def outs_of(self, w: int) -> RegisterBank:
        """Physical storage of window ``w``'s out registers."""
        return self._in_views[self._above[w]]

    def _check_index(self, w: int) -> None:
        if not 0 <= w < self.n_windows:
            raise WindowGeometryError(
                "window index %r out of range [0, %d)" % (w, self.n_windows))

    def __repr__(self) -> str:
        return "WindowFile(n=%d, cwp=%d, wim=%s)" % (
            self.n_windows, self.cwp, sorted(self.wim))
