"""Wiring of the spell-checker pipeline (Figure 10) and run helpers.

The thread names and the buffer sizes of the six configurations are
defined in :mod:`repro.apps.spellcheck.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.apps.spellcheck.config import BUFFER_CONFIGS, THREAD_NAMES
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

@dataclass(frozen=True)
class SpellConfig:
    """One spell-checker workload configuration."""

    m: int
    n: int
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    #: bytes per stream read of T1, T2, T3 and T5 (a constant)
    read_chunk: ClassVar[int] = 64

    @classmethod
    def named(cls, concurrency: str, granularity: str,
              scale: float = 1.0, seed: int = DEFAULT_SEED) -> "SpellConfig":
        m, n = BUFFER_CONFIGS[(concurrency, granularity)]
        return cls(m=m, n=n, scale=scale, seed=seed)


def build_spellchecker(kernel: Kernel, config: SpellConfig,
                       corpus: Optional[bytes] = None) -> Dict[str, object]:
    """Spawn T1–T7 and S1–S6 into the kernel; returns the parts.

    ``corpus`` (a document's bytes) replaces the generated document;
    the dictionaries are still generated at ``config.scale``.
    """
    if corpus is None:
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
                     corpus: Optional[bytes] = None,
                     ) -> Tuple[RunResult, bytes]:
    """Build and run the pipeline; returns (result, misspelling report).

    ``verify_registers`` defaults to False here (unlike the kernel
    default) because the evaluation sweeps are large; the test suite
    runs the pipeline with verification on.

    ``instrument``, when given, is called with the kernel before any
    thread is spawned — the hook observability consumers use to
    enable tracing (``kernel.events``) or attach tracker/timeline.

    ``faults``/``audit``/``watchdog``/``crash_dir`` are the robustness
    knobs, forwarded to the kernel (see :mod:`repro.faults`).  When
    ``crash_dir`` is set, any crash bundle embeds the run's config:
    workload ``spellcheck``, which replay rebuilds, or
    ``spellcheck-file`` when ``corpus`` (see :func:`build_spellchecker`)
    replaced the generated document, which replay refuses: a bundle
    does not carry the document.
    """
    crash_config = None
    if crash_dir is not None:
        crash_config = {
            "workload": ("spellcheck" if corpus is None
                         else "spellcheck-file"),
            "scheme": scheme, "n_windows": n_windows,
            "m": config.m, "n": config.n,
            "scale": config.scale, "seed": config.seed,
            "verify_registers": verify_registers, "audit": audit,
            "watchdog": watchdog or 0,
        }
    kernel = Kernel(n_windows=n_windows, scheme=scheme,
                    queue_policy=queue_policy, allocation=allocation,
                    verify_registers=verify_registers,
                    faults=faults, audit=audit, watchdog=watchdog,
                    crash_dir=crash_dir, crash_config=crash_config)
    if instrument is not None:
        instrument(kernel)
    build_spellchecker(kernel, config, corpus)
    result = kernel.run(max_steps=max_steps)
    return result, result.result_of("T5.output")
