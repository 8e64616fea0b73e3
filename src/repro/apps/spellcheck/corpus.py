"""Deterministic corpus and dictionary generation.

The paper's input was a 40 500-byte LaTeX draft of the paper itself,
checked against the UNIX spell dictionaries (the two dictionary
streams T6 and T7 carry about 50 000 bytes each, judging from their
context-switch counts in Table 1).  We generate a synthetic equivalent:

* a seeded vocabulary of base words (a core of real English words plus
  deterministically synthesised word-shaped strings),
* ``dict2`` — the base-word dictionary used by T3 (spell2),
* ``dict1`` — the valid *derivative forms* used by T2 (spell1) to
  catch incorrect derivatives (words that naive suffix stripping would
  wrongly accept),
* a LaTeX document of exactly ``CORPUS_SIZE * scale`` bytes with a
  Zipf-ish word distribution, LaTeX commands, math, comments, and a
  seeded sprinkle of misspellings and unknown words.

Everything is a pure function of the seed, so every experiment is
exactly reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Sequence, Tuple

#: the paper's draft was 40500 bytes long (§5.1)
CORPUS_SIZE = 40500
#: inferred from T6/T7 behaviour in Table 1 (50001 fine-grain switches)
DICT_SIZE = 50000

DEFAULT_SEED = 1993

#: suffixes handled by the derivative logic (mirrors UNIX spell's list)
SUFFIXES = ("ing", "ed", "es", "er", "est", "ly", "s")

#: base words per full-size dictionary (~50 kB at ~9.6 bytes per line)
BASES_PER_FULL_DICT = 5200

#: per-word odds in the generated document: a misspelling, an unknown
#: word, and (for a suffixed word) the naive, often wrong derivative
MISSPELLING_RATE = 0.004
UNKNOWN_RATE = 0.002
NAIVE_DERIVATIVE_RATE = 0.05

_CORE_WORDS = """
article document class begin end
the of and to in is that it for on with as are this be by from at or an
window register thread context switch scheme overflow underflow trap
processor architecture memory stack cache pipeline instruction cycle
save restore call return procedure function program system machine
performance evaluation result figure table section paper algorithm
hardware software parallel concurrent granularity concurrency level
buffer stream input output dictionary spell check word line file
number count time fast slow cost overhead support dynamic static
allocation management multiple single share reserved private global
local current pointer mask valid invalid active suspend schedule
queue ready block wake run exec work set concept virtual physical
page frame task monitor kernel user code data value state change
point order case best worst small large high low fine coarse deep
shallow top bottom above below first last next new old good bad
design implement measure compare propose describe discuss show
present require provide reduce increase improve enable avoid cause
effect behavior pattern model term define note example section
"""


def _syllable_word(rng: random.Random) -> str:
    """A pronounceable synthetic base word (no real-word collisions
    matter: the same vocabulary feeds both corpus and dictionaries)."""
    onsets = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n",
              "p", "r", "s", "t", "v", "w", "z", "br", "cl", "dr",
              "fl", "gr", "pl", "pr", "sk", "sl", "sp", "st", "tr"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
    codas = ["", "b", "d", "g", "k", "l", "m", "n", "p", "r", "t",
             "ck", "ld", "nd", "nt", "rm", "st"]
    n_syll = rng.choice((2, 2, 2, 3, 3))
    parts = []
    for _ in range(n_syll):
        parts.append(rng.choice(onsets))
        parts.append(rng.choice(vowels))
    parts.append(rng.choice(codas))
    return "".join(parts)


def derive(base: str, suffix: str) -> str:
    """The *correct* derivative form (simplified English spelling
    rules: drop a silent e, y->ies, s/es choice)."""
    if suffix in ("ing", "ed", "er", "est") and base.endswith("e"):
        return base[:-1] + suffix
    if suffix in ("s", "es"):
        if base.endswith(("s", "x", "z", "ch", "sh")):
            return base + "es"
        if base.endswith("y") and len(base) > 2 and base[-2] not in "aeiou":
            return base[:-1] + "ies"
        return base + "s"
    if suffix == "ly" and base.endswith("y"):
        return base[:-1] + "ily"
    return base + suffix


def naive_strip(word: str) -> List[str]:
    """Candidate stems by naive suffix stripping (what T3 would do and
    what T2 must double-check, §5.1)."""
    stems = []
    for suffix in SUFFIXES:
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            stems.append(word[: -len(suffix)])
    return stems


def misspell(word: str, rng: random.Random) -> str:
    """Introduce one deterministic-per-rng typo."""
    if len(word) < 4:
        return word + word[-1]
    kind = rng.randrange(4)
    i = rng.randrange(1, len(word) - 1)
    if kind == 0:  # drop a letter
        return word[:i] + word[i + 1:]
    if kind == 1:  # double a letter
        return word[:i] + word[i] + word[i:]
    if kind == 2:  # swap neighbours
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    return word[:i] + "q" + word[i + 1:]  # substitute


def generate_vocabulary(seed: int, n_bases: int) -> List[str]:
    """Base vocabulary: core English words plus synthetic fillers."""
    rng = random.Random(seed)
    words = []
    seen = set()
    for w in _CORE_WORDS.split():
        if w not in seen:
            seen.add(w)
            words.append(w)
    while len(words) < n_bases:
        w = _syllable_word(rng)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def bases_for_scale(scale: float) -> int:
    """Vocabulary size consistent between corpus and dictionaries, so
    that dictionary coverage of the document stays realistic at every
    scale factor."""
    return max(60, int(BASES_PER_FULL_DICT * scale))


def generate_dictionaries(seed: int = DEFAULT_SEED,
                          size: int = DICT_SIZE
                          ) -> Tuple[bytes, bytes, List[str]]:
    """Build (dict1, dict2, vocabulary).

    dict2 is the base-word list (for T3); dict1 is the valid-derivative
    list (for T2).  Both are newline-separated and padded/truncated to
    ``size`` bytes by adjusting the number of entries.

    Generation is pure in (seed, size), so results are memoized —
    benchmark repeats and sweep grids rebuild the same dictionaries
    many times.  The byte streams are immutable and shared; the
    vocabulary list is copied per call.
    """
    dict1, dict2, vocab = _dictionaries_cached(seed, size)
    return dict1, dict2, list(vocab)


@lru_cache(maxsize=64)
def _dictionaries_cached(seed: int,
                         size: int) -> Tuple[bytes, bytes, tuple]:
    vocab = generate_vocabulary(seed, bases_for_scale(size / DICT_SIZE))
    rng = random.Random(seed + 1)

    def pack(words: Sequence[str]) -> bytes:
        out = bytearray()
        for w in words:
            encoded = w.encode("ascii") + b"\n"
            if len(out) + len(encoded) > size:
                break
            out.extend(encoded)
        # pad with comment-ish filler entries to the exact size
        while len(out) < size:
            filler = ("#" + format(len(out), "06d")).encode("ascii") + b"\n"
            out.extend(filler[: size - len(out)])
        return bytes(out)

    dict2 = pack(vocab)

    # dict1: the *derivable* bases T2 uses to validate derivative
    # spelling by rule (a large sample of the vocabulary).
    derivable = [base for base in vocab if rng.random() < 0.85]
    dict1 = pack(derivable)
    return dict1, dict2, tuple(vocab)


def generate_corpus(seed: int = DEFAULT_SEED, scale: float = 1.0) -> bytes:
    """A LaTeX document of exactly ``round(CORPUS_SIZE * scale)`` bytes.

    Word frequencies are Zipf-ish over the vocabulary; a seeded
    fraction of words are misspelled or replaced with unknown words so
    the spell checker produces output of a realistic size (the paper's
    T5 handled about 1000 bytes).

    Generation is pure in its arguments and the result is immutable
    bytes, so documents are memoized — benchmark repeats and sweep
    grids rebuild the same corpus many times.
    """
    return _corpus_cached(seed, scale)


@lru_cache(maxsize=64)
def _corpus_cached(seed: int, scale: float) -> bytes:
    target = max(200, int(round(CORPUS_SIZE * scale)))
    vocab = generate_vocabulary(seed, bases_for_scale(scale))
    rng = random.Random(seed + 2)

    # Zipf-ish sampling: rank r gets weight 1/(r+3).
    weights = [1.0 / (r + 3) for r in range(len(vocab))]
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)

    def pick_word() -> str:
        x = rng.random() * total
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return vocab[lo]

    latex_commands = ["\\section{%s}", "\\cite{%s}", "\\ref{%s}",
                      "\\emph{%s}", "\\label{%s}", "\\textbf{%s}"]

    out = bytearray()
    out.extend(b"\\documentclass{article}\n\\begin{document}\n")
    line = []
    line_len = 0
    words_on_line = 0
    while len(out) < target:
        roll = rng.random()
        if roll < 0.015:
            token = rng.choice(latex_commands) % pick_word()
        elif roll < 0.025:
            token = "$%s_{%d}$" % (pick_word()[:3], rng.randrange(9))
        elif roll < 0.030:
            token = "% " + pick_word()
        else:
            word = pick_word()
            style = rng.random()
            if style < MISSPELLING_RATE:
                word = misspell(word, rng)
            elif style < MISSPELLING_RATE + UNKNOWN_RATE:
                word = _syllable_word(rng) + "yx"
            elif style < 0.25:
                suffix = rng.choice(SUFFIXES)
                if rng.random() < NAIVE_DERIVATIVE_RATE:
                    word = word + suffix          # naive, often incorrect
                else:
                    word = derive(word, suffix)   # correct derivative
            token = word
        line.append(token)
        line_len += len(token) + 1
        words_on_line += 1
        if line_len > 68 or (token.startswith("%") and words_on_line > 1):
            encoded = (" ".join(line) + "\n").encode("ascii")
            out.extend(encoded)
            line = []
            line_len = 0
            words_on_line = 0
    if line:
        out.extend((" ".join(line) + "\n").encode("ascii"))
    out.extend(b"\\end{document}\n")
    # Trim or pad to the exact target size, ending with a newline.
    if len(out) > target:
        del out[target - 1:]
        out.extend(b"\n")
    while len(out) < target:
        out.extend(b"%\n"[: target - len(out)])
    return bytes(out)
