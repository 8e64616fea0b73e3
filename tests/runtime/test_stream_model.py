"""Model-based stream test: the bounded cyclic buffer must behave like
a plain byte queue with a capacity limit (hypothesis-driven)."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.streams import Stream
from tests.support.streams import pull, pull_line, push

# operations: ("push", bytes) | ("pull", n) | ("pull_line",)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.binary(min_size=1, max_size=12)),
        st.tuples(st.just("pull"), st.integers(1, 12)),
        st.tuples(st.just("pull_line")),
    ),
    max_size=60)


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(1, 16), ops=ops_strategy)
def test_stream_matches_reference_queue(capacity, ops):
    stream = Stream(capacity, "model")
    model = deque()

    for op in ops:
        if op[0] == "push":
            data = op[1]
            accepted = push(stream, data)
            space = capacity - len(model)
            assert accepted == min(space, len(data))
            model.extend(data[:accepted])
        elif op[0] == "pull":
            got = pull(stream, op[1])
            expected = bytes(model[i] for i in range(
                min(op[1], len(model))))
            assert got == expected
            for __ in range(len(got)):
                model.popleft()
        else:  # pull_line
            buffered = bytes(model)
            idx = buffered.find(b"\n")
            got = pull_line(stream)
            if idx < 0:
                assert got is None
            else:
                assert got == buffered[:idx + 1]
                for __ in range(idx + 1):
                    model.popleft()
        assert len(stream) == len(model)
        assert stream.is_full == (len(model) == capacity)
        assert stream.is_empty == (not model)


@settings(max_examples=60, deadline=None)
@given(chunks=st.lists(st.binary(min_size=0, max_size=6), max_size=20),
       capacity=st.integers(1, 8))
def test_byte_accounting(chunks, capacity):
    stream = Stream(capacity)
    written = 0
    read = 0
    for chunk in chunks:
        written += push(stream, chunk)
        read += len(pull(stream, capacity))
    read += len(pull(stream, capacity))
    assert stream.bytes_written == written
    assert stream.bytes_read == read
    assert written == read
