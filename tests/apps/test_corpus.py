"""Corpus and dictionary generation: determinism, sizes, structure."""

from repro.apps.spellcheck.corpus import (
    CORPUS_SIZE,
    DICT_SIZE,
    SUFFIXES,
    bases_for_scale,
    derive,
    generate_corpus,
    generate_dictionaries,
    generate_vocabulary,
    misspell,
    naive_strip,
)
from repro.apps.spellcheck.oracle import _FakeStream, run_procedure
from repro.apps.spellcheck.spell import load_dictionary

import random

FULL = bases_for_scale(1.0)


def read_dictionary(data: bytes) -> set:
    """The word set the spell checkers' ``load_dictionary`` builds
    from a dictionary stream."""
    stream = _FakeStream()
    stream.data.extend(data)
    return run_procedure(load_dictionary(stream))


class TestVocabulary:
    def test_deterministic(self):
        assert generate_vocabulary(7, FULL) == generate_vocabulary(7, FULL)

    def test_different_seeds_differ(self):
        assert generate_vocabulary(1, FULL) != generate_vocabulary(2, FULL)

    def test_no_duplicates(self):
        vocab = generate_vocabulary(3, 500)
        assert len(vocab) == len(set(vocab)) == 500

    def test_all_lowercase_ascii(self):
        for word in generate_vocabulary(3, 300):
            assert word.isalpha() and word == word.lower()


class TestDerive:
    def test_silent_e_dropped(self):
        assert derive("move", "ing") == "moving"
        assert derive("move", "ed") == "moved"

    def test_y_to_ies(self):
        assert derive("try", "s") == "tries"
        assert derive("try", "es") == "tries"

    def test_sibilant_takes_es(self):
        assert derive("pass", "s") == "passes"
        assert derive("patch", "es") == "patches"

    def test_plain_concatenation(self):
        assert derive("wind", "s") == "winds"
        assert derive("slow", "ly") == "slowly"

    def test_y_ly(self):
        assert derive("happy", "ly") == "happily"


class TestNaiveStrip:
    def test_strips_each_suffix(self):
        assert "window" in naive_strip("windows")
        assert "check" in naive_strip("checking")

    def test_short_words_not_stripped(self):
        assert naive_strip("is") == []

    def test_returns_multiple_candidates(self):
        stems = naive_strip("takes")
        assert "tak" in stems and "take" in stems


class TestMisspell:
    def test_changes_the_word(self):
        rng = random.Random(5)
        for word in ("window", "register", "thread", "context"):
            assert misspell(word, rng) != word

    def test_short_words_doubled(self):
        rng = random.Random(5)
        assert misspell("ab", rng) == "abb"


class TestDictionaries:
    def test_exact_size(self):
        d1, d2, __ = generate_dictionaries(size=5000)
        assert len(d1) == 5000
        assert len(d2) == 5000

    def test_deterministic(self):
        assert generate_dictionaries(9)[0] == generate_dictionaries(9)[0]

    def test_dict2_covers_vocabulary(self):
        d1, d2, vocab = generate_dictionaries()
        words = read_dictionary(d2)
        assert set(vocab) <= words

    def test_dict1_is_subset_of_vocab(self):
        d1, __, vocab = generate_dictionaries()
        bases = read_dictionary(d1)
        assert bases <= set(vocab)
        assert len(bases) > len(vocab) * 0.5

    def test_full_size_default(self):
        d1, d2, __ = generate_dictionaries()
        assert len(d1) == DICT_SIZE == len(d2)


class TestCorpus:
    def test_exact_paper_size_at_full_scale(self):
        assert len(generate_corpus()) == CORPUS_SIZE == 40500

    def test_scaled_size(self):
        assert len(generate_corpus(scale=0.1)) == 4050

    def test_deterministic(self):
        assert generate_corpus(11, 0.05) == generate_corpus(11, 0.05)

    def test_is_ascii_latex(self):
        corpus = generate_corpus(scale=0.1)
        text = corpus.decode("ascii")  # must not raise
        assert text.count("\\") > 5  # commands
        assert text.count("$") >= 2  # math
        assert text.count("%") >= 1  # comments
        assert text.count("\n") > 20
        assert "\\documentclass" in text

    def test_bases_for_scale_consistency(self):
        assert bases_for_scale(1.0) == 5200
        assert bases_for_scale(0.5) == 2600
        assert bases_for_scale(0.001) == 60

    def test_suffixes_are_a_tuple_for_endswith(self):
        assert isinstance(SUFFIXES, tuple)
        assert "windows".endswith(SUFFIXES)
