"""Unit tests for the bounded FIFO streams, moved through the reference
transfer primitives of ``tests/support/streams.py``."""

import pytest

from repro.runtime.streams import Stream, StreamClosedError
from tests.support.streams import (
    at_eof,
    has_line,
    pull,
    pull_line,
    push,
    space,
)


class TestCapacity:
    def test_push_respects_capacity(self):
        s = Stream(4)
        assert push(s, b"abcdef") == 4
        assert s.is_full
        assert push(s, b"x") == 0

    def test_pull_respects_available(self):
        s = Stream(4)
        push(s, b"ab")
        assert pull(s, 10) == b"ab"
        assert pull(s, 10) == b""

    def test_fifo_order(self):
        s = Stream(8)
        push(s, b"abc")
        push(s, b"def")
        assert pull(s, 2) == b"ab"
        assert pull(s, 10) == b"cdef"

    def test_space_tracking(self):
        s = Stream(5)
        push(s, b"abc")
        assert space(s) == 2
        pull(s, 1)
        assert space(s) == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Stream(0)

    def test_byte_counters(self):
        s = Stream(4)
        push(s, b"abcd")
        pull(s, 2)
        push(s, b"ef")
        assert s.bytes_written == 6
        assert s.bytes_read == 2


class TestClose:
    def test_write_after_close_raises(self):
        s = Stream(4)
        s.close()
        with pytest.raises(StreamClosedError):
            push(s, b"a")

    def test_eof_only_when_closed_and_empty(self):
        s = Stream(4)
        push(s, b"a")
        s.close()
        assert not at_eof(s)
        pull(s, 1)
        assert at_eof(s)


class TestLines:
    def test_pull_line_complete(self):
        s = Stream(16)
        push(s, b"hello\nworld\n")
        assert pull_line(s) == b"hello\n"
        assert pull_line(s) == b"world\n"
        assert pull_line(s) is None

    def test_pull_line_partial_waits(self):
        s = Stream(16)
        push(s, b"hel")
        assert pull_line(s) is None
        assert not has_line(s)
        push(s, b"lo\n")
        assert has_line(s)
        assert pull_line(s) == b"hello\n"

    def test_residue_counts_as_line_at_eof(self):
        s = Stream(16)
        push(s, b"tail")
        s.close()
        assert has_line(s)
        assert pull_line(s) == b"tail"
