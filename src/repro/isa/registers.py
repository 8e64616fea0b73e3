"""SPARC register names and the four banks of a register window.

``%g0``–``%g7`` are globals (``%g0`` hardwired to zero), ``%o`` are the
current window's outs, ``%l`` its locals, ``%i`` its ins.  Synonyms:
``%sp`` = ``%o6``, ``%fp`` = ``%i6``.
"""

from __future__ import annotations

from typing import Tuple

GLOBAL = "g"
OUT = "o"
LOCAL = "l"
IN = "i"

_SYNONYMS = {
    "%sp": "%o6",
    "%fp": "%i6",
}


class RegisterError(ValueError):
    """Bad register name."""


def parse_register(name: str) -> Tuple[str, int]:
    """``"%l3"`` -> ``("l", 3)``; raises RegisterError otherwise."""
    name = _SYNONYMS.get(name, name)
    if len(name) != 3 or name[0] != "%":
        raise RegisterError("bad register %r" % name)
    bank, idx = name[1], name[2]
    if bank not in "goli" or not idx.isdigit():
        raise RegisterError("bad register %r" % name)
    index = int(idx)
    if index > 7:
        raise RegisterError("bad register index %r" % name)
    return bank, index
