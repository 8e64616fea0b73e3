"""Reference numbers transcribed from the paper, for side-by-side
reporting and shape checks.

Table 1 columns are (high, fine) (high, medium) (high, coarse)
(low, fine) (low, medium) (low, coarse) — the text lists the counts in
descending order per concurrency level, and the dictionary threads
T6/T7 pin the interpretation: ~50 001 switches means a one-byte buffer
over a ~50 000-byte dictionary, 49 means a 1024-byte buffer.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: (concurrency, granularity) -> per-thread context-switch counts
PAPER_TABLE1_SWITCHES: Dict[Tuple[str, str], Dict[str, int]] = {
    ("high", "fine"): {
        "T1.delatex": 60566, "T2.spell1": 102447, "T3.spell2": 80578,
        "T4.input": 40501, "T5.output": 1005, "T6.dict1": 50001,
        "T7.dict2": 50001,
    },
    ("high", "medium"): {
        "T1.delatex": 12680, "T2.spell1": 23497, "T3.spell2": 21327,
        "T4.input": 11548, "T5.output": 314, "T6.dict1": 12501,
        "T7.dict2": 12501,
    },
    ("high", "coarse"): {
        "T1.delatex": 2653, "T2.spell1": 5400, "T3.spell2": 5400,
        "T4.input": 2653, "T5.output": 146, "T6.dict1": 3126,
        "T7.dict2": 3126,
    },
    ("low", "fine"): {
        "T1.delatex": 29838, "T2.spell1": 49952, "T3.spell2": 29887,
        "T4.input": 4817, "T5.output": 197, "T6.dict1": 49,
        "T7.dict2": 49,
    },
    ("low", "medium"): {
        "T1.delatex": 8925, "T2.spell1": 9983, "T3.spell2": 8791,
        "T4.input": 4612, "T5.output": 196, "T6.dict1": 49,
        "T7.dict2": 49,
    },
    ("low", "coarse"): {
        "T1.delatex": 2001, "T2.spell1": 2049, "T3.spell2": 2049,
        "T4.input": 1974, "T5.output": 135, "T6.dict1": 49,
        "T7.dict2": 49,
    },
}

#: dynamic save-instruction counts (independent of buffers/scheduling)
PAPER_TABLE1_SAVES: Dict[str, int] = {
    "T1.delatex": 113015,
    "T2.spell1": 110740,
    "T3.spell2": 75526,
    "T4.input": 10127,
    "T5.output": 262,
    "T6.dict1": 12502,
    "T7.dict2": 12502,
}
