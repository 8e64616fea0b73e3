"""The spell checker's shape: its thread names and the buffer sizes
of its six configurations.

Buffer sizes reproduce the paper's six behaviours (§5.2, Table 1):

* high concurrency: M = N, small (16 / 4 / 1 bytes for coarse /
  medium / fine granularity);
* low concurrency: M = 1024 (the I/O threads become coarse and rarely
  switch), N = 16 / 4 / 1.

With a cyclic buffer of ``b`` bytes a source thread blocks about once
per ``b`` bytes, so e.g. T6 (a ~50 000-byte dictionary) context-
switches ~50 001 / ~12 501 / ~3 126 / ~49 times at b = 1 / 4 / 16 /
1024 — the exact column structure of Table 1.

Nothing here imports the simulator, so a table can be rendered from
cached results without loading the kernel.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: paper thread names, in spawn (and therefore initial FIFO) order
THREAD_NAMES = ("T1.delatex", "T2.spell1", "T3.spell2",
                "T4.input", "T5.output", "T6.dict1", "T7.dict2")

#: (concurrency, granularity) -> (M, N)
BUFFER_CONFIGS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("high", "coarse"): (16, 16),
    ("high", "medium"): (4, 4),
    ("high", "fine"): (1, 1),
    ("low", "coarse"): (1024, 16),
    ("low", "medium"): (1024, 4),
    ("low", "fine"): (1024, 1),
}
