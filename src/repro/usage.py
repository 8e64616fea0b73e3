"""Usage checks the command-line tools share.

A step limit below its minimum would cut every run at once and fail it
as a fault of the program under test; the CLIs refuse it up front, as
one ``error:`` line and exit 2.  This module imports nothing of the
simulator, so a CLI can check its flags before loading it.
"""

from __future__ import annotations

from typing import Optional


def step_count_error(flag: str, value: Optional[int],
                     minimum: int) -> Optional[str]:
    """Why ``value`` of ``flag`` is no step count of at least
    ``minimum``, or None (also when the flag is not given)."""
    if value is None or value >= minimum:
        return None
    return "%s %d: a step count must be at least %d" % (flag, value,
                                                        minimum)
