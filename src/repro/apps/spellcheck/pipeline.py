"""Wiring of the spell-checker pipeline (Figure 10) and run helpers.

Buffer sizes reproduce the paper's six behaviours (§5.2, Table 1):

* high concurrency: M = N, small (16 / 4 / 1 bytes for coarse /
  medium / fine granularity);
* low concurrency: M = 1024 (the I/O threads become coarse and rarely
  switch), N = 16 / 4 / 1.

With a cyclic buffer of ``b`` bytes a source thread blocks about once
per ``b`` bytes, so e.g. T6 (a ~50 000-byte dictionary) context-
switches ~50 001 / ~12 501 / ~3 126 / ~49 times at b = 1 / 4 / 16 /
1024 — the exact column structure of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.apps.spellcheck.corpus import (
    DEFAULT_SEED,
    DICT_SIZE,
    generate_corpus,
    generate_dictionaries,
)
from repro.apps.spellcheck.delatex import delatex_thread
from repro.apps.spellcheck.io_threads import file_sink_thread, file_source_thread
from repro.apps.spellcheck.spell import spell1_thread, spell2_thread
from repro.runtime.kernel import Kernel, RunResult

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


@dataclass(frozen=True)
class SpellConfig:
    """One spell-checker workload configuration."""

    m: int
    n: int
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    read_chunk: int = 64

    @classmethod
    def named(cls, concurrency: str, granularity: str,
              scale: float = 1.0, seed: int = DEFAULT_SEED) -> "SpellConfig":
        m, n = BUFFER_CONFIGS[(concurrency, granularity)]
        return cls(m=m, n=n, scale=scale, seed=seed)


def build_spellchecker(kernel: Kernel, config: SpellConfig) -> Dict[str, object]:
    """Spawn T1–T7 and S1–S6 into the kernel; returns the parts."""
    corpus = generate_corpus(config.seed, config.scale)
    dict1, dict2, _ = generate_dictionaries(
        config.seed, size=max(200, int(round(DICT_SIZE * config.scale))))

    s1 = kernel.stream(config.m, "S1")
    s2 = kernel.stream(config.n, "S2")
    s3 = kernel.stream(config.n, "S3")
    s4 = kernel.stream(config.m, "S4")
    s5 = kernel.stream(config.m, "S5")
    s6 = kernel.stream(config.m, "S6")

    rc = config.read_chunk
    threads = [
        kernel.spawn(delatex_thread, s1, s2, rc, name=THREAD_NAMES[0]),
        kernel.spawn(spell1_thread, s5, s2, s3, rc, name=THREAD_NAMES[1]),
        kernel.spawn(spell2_thread, s6, s3, s4, rc, name=THREAD_NAMES[2]),
        kernel.spawn(file_source_thread, s1, corpus, name=THREAD_NAMES[3]),
        kernel.spawn(file_sink_thread, s4, rc, name=THREAD_NAMES[4]),
        kernel.spawn(file_source_thread, s5, dict1, name=THREAD_NAMES[5]),
        kernel.spawn(file_source_thread, s6, dict2, name=THREAD_NAMES[6]),
    ]
    return {
        "streams": {"S1": s1, "S2": s2, "S3": s3,
                    "S4": s4, "S5": s5, "S6": s6},
        "threads": threads,
        "corpus": corpus,
        "dicts": (dict1, dict2),
    }


def run_spellchecker(n_windows: int, scheme: str, config: SpellConfig,
                     queue_policy=None, allocation=None,
                     verify_registers: bool = False,
                     max_steps: Optional[int] = None,
                     instrument=None, faults=None, audit: bool = False,
                     watchdog: Optional[int] = None, crash_dir=None,
                     crash_config=None,
                     analyze: bool = False,
                     backend: Optional[str] = None,
                     ) -> Tuple[RunResult, bytes]:
    """Build and run the pipeline; returns (result, misspelling report).

    ``verify_registers`` defaults to False here (unlike the kernel
    default) because the evaluation sweeps are large; the test suite
    runs the pipeline with verification on.

    ``instrument``, when given, is called with the kernel before any
    thread is spawned — the hook observability consumers use to
    subscribe to ``kernel.events`` or attach tracker/timeline.

    ``faults``/``audit``/``watchdog``/``crash_dir`` are the robustness
    knobs, forwarded to the kernel (see :mod:`repro.faults`).  When
    ``crash_dir`` is set and no explicit ``crash_config`` is given, a
    replayable workload description is embedded in any crash bundle.

    ``backend`` selects the execution backend
    ("compiled"/"pure"; see :mod:`repro.runtime.backend`) — None picks
    up ``$REPRO_BACKEND`` or auto-detects.

    ``analyze`` runs the static stream-topology check
    (:mod:`repro.analysis.topology`) before the first step; a
    guaranteed deadlock raises ``AnalysisError`` instead of running.
    """
    if crash_dir is not None and crash_config is None:
        crash_config = {
            "workload": "spellcheck", "scheme": scheme,
            "n_windows": n_windows, "m": config.m, "n": config.n,
            "scale": config.scale, "seed": config.seed,
            "verify_registers": verify_registers, "audit": audit,
            "watchdog": watchdog or 0,
        }
    kernel = Kernel(n_windows=n_windows, scheme=scheme,
                    queue_policy=queue_policy, allocation=allocation,
                    verify_registers=verify_registers,
                    faults=faults, audit=audit, watchdog=watchdog,
                    crash_dir=crash_dir, crash_config=crash_config,
                    analyze=analyze, backend=backend)
    if instrument is not None:
        instrument(kernel)
    build_spellchecker(kernel, config)
    result = kernel.run(max_steps=max_steps)
    return result, result.result_of("T5.output")
