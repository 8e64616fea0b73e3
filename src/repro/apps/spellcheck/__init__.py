"""The paper's evaluation application: a multi-threaded spell checker
for LaTeX source files (§5.1, Figure 10).

Seven threads connected by six bounded streams::

    T4 (input) --S1(M)--> T1 (delatex) --S2(N)--> T2 (spell1)
        --S3(N)--> T3 (spell2) --S4(M)--> T5 (output)
    T6 (dict1) --S5(M)--> T2        T7 (dict2) --S6(M)--> T3

* Granularity is set by the absolute sizes of M and N;
* concurrency by their relative sizes: M == N (small) is the
  high-concurrency case, M >> N the low-concurrency case.
"""

from repro.lazy import LazyExports

_exports = LazyExports(__name__, {
    "repro.apps.spellcheck.corpus": ("CORPUS_SIZE", "DICT_SIZE",
                                     "generate_corpus",
                                     "generate_dictionaries",
                                     "generate_vocabulary"),
    "repro.apps.spellcheck.config": ("BUFFER_CONFIGS",),
    "repro.apps.spellcheck.pipeline": ("SpellConfig", "build_spellchecker",
                                       "run_spellchecker"),
})

__all__ = [
    "CORPUS_SIZE",
    "DICT_SIZE",
    "generate_corpus",
    "generate_dictionaries",
    "generate_vocabulary",
    "BUFFER_CONFIGS",
    "SpellConfig",
    "build_spellchecker",
    "run_spellchecker",
]

__getattr__ = _exports.resolve
__dir__ = _exports.names
