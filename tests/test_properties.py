"""Property-based tests (hypothesis): random trap-level operation
sequences and random thread programs must preserve every invariant, on
every scheme, at every window count."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.core.invariants import check_invariants
from repro.metrics.counters import TrapRecord
from tests.helpers import (
    call,
    call_to_depth,
    make_machine,
    new_thread,
    ret,
    ret_to_depth,
)

SCHEMES = ("NS", "SNP", "SP")

# an op is (thread_index 0..2, action 0=call 1=ret 2=switch)
ops_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=120)


@settings(max_examples=60, deadline=None)
@given(
    ops=ops_strategy,
    n_windows=st.integers(4, 9),
    scheme_idx=st.integers(0, 2),
)
def test_random_trap_sequences_preserve_invariants(ops, n_windows,
                                                   scheme_idx):
    """Drive calls, returns and context switches in random order; the
    helpers verify arguments, return values and frame signatures, and
    the invariant checker runs after every operation."""
    scheme_name = SCHEMES[scheme_idx]
    cpu, scheme = make_machine(n_windows, scheme_name)
    threads = [new_thread(scheme, i) for i in range(3)]
    current = threads[0]
    scheme.context_switch(None, current)
    for tid, action in ops:
        target = threads[tid]
        if action == 2 or target is not current:
            if target is current:
                continue
            scheme.context_switch(current, target)
            current = target
            if action == 2:
                check_invariants(cpu, scheme, threads)
                continue
        if action == 0:
            call(cpu, current)
        elif action == 1 and current.depth > 1:
            ret(cpu, current)
        check_invariants(cpu, scheme, threads)
    # unwind everything; every signature must still verify
    for thread in threads:
        if thread is not current and thread.started:
            scheme.context_switch(current, thread)
            current = thread
        while current.depth > 1:
            ret(cpu, current)
        check_invariants(cpu, scheme, threads)


@settings(max_examples=30, deadline=None)
@given(
    depths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    payload=st.integers(0, 2 ** 20),
    n_windows=st.integers(4, 8),
    scheme_idx=st.integers(0, 2),
)
def test_random_call_trees_compute_correctly(depths, payload, n_windows,
                                             scheme_idx):
    """A chain of nested calls of random depth must thread the payload
    down and back up intact, under window pressure."""

    def nested(depth, value):
        yield Tick(1)
        if depth == 0:
            return value + 1
        result = yield Call(nested, depth - 1, value + 1)
        return result

    def root():
        total = 0
        for depth in depths:
            total += yield Call(nested, depth, payload)
        return total

    kernel = Kernel(n_windows=n_windows, scheme=SCHEMES[scheme_idx])
    kernel.spawn(root, name="root")
    result = kernel.run(max_steps=200_000)
    expected = sum(payload + depth + 1 for depth in depths)
    assert result.result_of("root") == expected


@settings(max_examples=25, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=9),
                    min_size=1, max_size=24),
    capacity=st.integers(1, 8),
    n_windows=st.integers(4, 8),
)
def test_stream_transfer_is_lossless(chunks, capacity, n_windows):
    """Arbitrary chunk sequences through a tiny bounded stream arrive
    intact and in order, for every scheme, with identical save counts
    across schemes."""
    expected = b"".join(chunks)
    saves_by_scheme = {}
    for scheme in SCHEMES:
        def producer(s):
            for chunk in chunks:
                yield Write(s, chunk)
            yield CloseStream(s)
            return None

        def consumer(s):
            got = bytearray()
            while True:
                data = yield Read(s, 5)
                if not data:
                    return bytes(got)
                got.extend(data)
                yield Call(_touch, len(data))

        def _touch(n):
            yield Tick(n)
            return n

        kernel = Kernel(n_windows=n_windows, scheme=scheme)
        stream = kernel.stream(capacity, "s")
        kernel.spawn(producer, stream, name="p")
        kernel.spawn(consumer, stream, name="c")
        result = kernel.run(max_steps=500_000)
        assert result.result_of("c") == expected
        saves_by_scheme[scheme] = result.counters.saves
    assert len(set(saves_by_scheme.values())) == 1


def _assert_no_spill_on_underflow(records):
    """§4's point: the in-place restore services every underflow
    without moving any *other* window out — an underflow trap must
    never spill."""
    underflows = [t for t in records
                  if isinstance(t, TrapRecord) and t.kind == "underflow"]
    spilled = [t for t in underflows if t.spilled]
    assert not spilled, (
        "%d underflow trap(s) spilled a window: %r"
        % (len(spilled), spilled[:3]))
    for trap in underflows:
        assert trap.restored, "underflow serviced without a restore"


@settings(max_examples=50, deadline=None)
@given(
    ops=ops_strategy,
    n_windows=st.integers(4, 7),
    scheme_idx=st.integers(0, 1),
)
def test_underflow_inplace_restore_never_spills(ops, n_windows,
                                                scheme_idx):
    """Random call/switch interleavings under the sharing schemes (SNP
    and SP): every underflow is serviced by the in-place restore, so
    the spill-on-underflow count stays at zero and all invariants hold.
    The small window files make the threads evict each other, which is
    exactly what produces underflows on the way back down."""
    scheme_name = ("SNP", "SP")[scheme_idx]
    cpu, scheme = make_machine(n_windows, scheme_name)
    scheme.records = []
    threads = [new_thread(scheme, i) for i in range(3)]
    current = threads[0]
    scheme.context_switch(None, current)
    for tid, action in ops:
        target = threads[tid]
        if target is not current:
            scheme.context_switch(current, target)
            current = target
        if action == 0:
            call(cpu, current)
        elif action == 1 and current.depth > 1:
            ret(cpu, current)
        _assert_no_spill_on_underflow(scheme.records)
        check_invariants(cpu, scheme, threads)
    for thread in threads:
        if thread is not current and thread.started:
            scheme.context_switch(current, thread)
            current = thread
        while current.depth > 1:
            ret(cpu, current)
            _assert_no_spill_on_underflow(scheme.records)
        check_invariants(cpu, scheme, threads)


@pytest.mark.parametrize("scheme_name", ("SNP", "SP"))
def test_forced_underflows_restore_in_place(scheme_name):
    """Deterministic companion to the property above: force the
    underflow path (deep call stacks, interleaved eviction, full
    unwind) and require that underflows actually happened — and that
    none of them spilled."""
    n_windows = 5
    cpu, scheme = make_machine(n_windows, scheme_name)
    scheme.records = []
    threads = [new_thread(scheme, i) for i in range(2)]
    current = threads[0]
    scheme.context_switch(None, current)
    for __ in range(2):
        for thread in threads:
            if thread is not current:
                scheme.context_switch(current, thread)
                current = thread
            call_to_depth(cpu, current, current.depth + n_windows + 2)
            check_invariants(cpu, scheme, threads)
    for thread in threads:
        if thread is not current:
            scheme.context_switch(current, thread)
            current = thread
        ret_to_depth(cpu, current, 1)
        check_invariants(cpu, scheme, threads)
    assert cpu.counters.underflow_traps > 0, (
        "scenario failed to underflow — deepen the call stacks")
    _assert_no_spill_on_underflow(scheme.records)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_windows=st.integers(3, 10))
def test_window_overlap_identity(data, n_windows):
    """outs_of(w) is physically ins_of(above(w)), for every w."""
    from repro.windows.window_file import WindowFile

    wf = WindowFile(n_windows)
    writes = data.draw(st.lists(
        st.tuples(st.integers(0, n_windows - 1), st.integers(0, 7),
                  st.integers(0, 255)),
        max_size=32))
    for w, i, v in writes:
        wf.outs_of(w)[i] = v
        assert wf.ins_of(wf.above(w))[i] == v
    for w in range(n_windows):
        assert wf.outs_of(w) is wf.ins_of(wf.above(w))
