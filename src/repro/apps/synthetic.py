"""Synthetic workloads with controllable window behaviour.

These isolate single effects for the ablation benchmarks and tests:

* :func:`spawn_call_depth_workers` — threads oscillating between call
  depths, with exact control over window activity per thread (§5);
* :func:`spawn_ping_pong` — two threads alternating on byte streams:
  the §4.2 pathology case for the SNP simple allocation policy;
* :func:`spawn_fork_join` — a parent feeding work to children and
  collecting results, long sleeps included (for the §4.4 flush-type
  switch ablation);
* :func:`spawn_yield_storm` — threads spinning through ``YieldCPU``
  without moving data: the livelock pattern the kernel watchdog
  exists to detect.
"""

from __future__ import annotations

from typing import List

from repro.runtime.kernel import Kernel
from repro.runtime.ops import (
    Call,
    CloseStream,
    FlushHint,
    Read,
    Tick,
    Write,
    YieldCPU,
)
from repro.runtime.thread import SimThread


def _nest(depth: int, work: int):
    """Descend ``depth`` calls, tick, and unwind."""
    yield Tick(1)
    if depth <= 0:
        yield Tick(work)
        return 1
    result = yield Call(_nest, depth - 1, work)
    return result + 1


def _depth_worker(stream, iterations: int, depth: int, work: int):
    """One quantum of work per token read: descend/ascend ``depth``."""
    completed = 0
    for __ in range(iterations):
        token = yield Read(stream, 1)
        if not token:
            break
        levels = yield Call(_nest, depth, work)
        completed += levels
    return completed


def _token_source(stream, count: int):
    for __ in range(count):
        yield Write(stream, b"x")
    yield CloseStream(stream)
    return count


def spawn_call_depth_workers(kernel: Kernel, n_workers: int,
                             iterations: int, depth: int,
                             work: int = 5) -> List[SimThread]:
    """Workers with window activity per thread of exactly ``depth+1``.

    A one-byte token stream per worker forces a context switch per
    iteration, so total window activity = n_workers * (depth + 1).
    """
    threads = []
    for i in range(n_workers):
        stream = kernel.stream(1, "tok%d" % i)
        threads.append(kernel.spawn(
            _token_source, stream, iterations, name="src%d" % i))
        threads.append(kernel.spawn(
            _depth_worker, stream, iterations, depth, work,
            name="worker%d" % i))
    return threads


def _pinger(out_stream, in_stream, rounds: int):
    """Blocks immediately after every send: suspends with no calls in
    flight — the pattern that makes SNP's simple allocation thrash
    (§4.2: B suspends without any procedure calls, A is rescheduled,
    B's window is spilt to make room for A's reserved window...)."""
    for __ in range(rounds):
        yield Write(out_stream, b"p")
        data = yield Read(in_stream, 1)
        if not data:
            break
    yield CloseStream(out_stream)
    return rounds


def _ponger(in_stream, out_stream):
    count = 0
    while True:
        data = yield Read(in_stream, 1)
        if not data:
            yield CloseStream(out_stream)
            return count
        count += 1
        yield Write(out_stream, b"q")


def spawn_ping_pong(kernel: Kernel, rounds: int) -> List[SimThread]:
    """Two threads strictly alternating through one-byte streams."""
    ping = kernel.stream(1, "ping")
    pong = kernel.stream(1, "pong")
    return [
        kernel.spawn(_pinger, ping, pong, rounds, name="pinger"),
        kernel.spawn(_ponger, ping, pong, name="ponger"),
    ]


def _fork_parent(work_streams, result_stream, items: int,
                 flush_hint: bool):
    sent = 0
    for i in range(items):
        stream = work_streams[i % len(work_streams)]
        yield Write(stream, bytes([i % 251]))
        sent += 1
    for stream in work_streams:
        yield CloseStream(stream)
    total = 0
    received = 0
    if flush_hint:
        # The parent now only waits for results: it will sleep long,
        # so ask for the flush-type context switch (§4.4).
        yield FlushHint()
    while received < items:
        data = yield Read(result_stream, 64)
        if not data:
            break
        for byte in data:
            total += byte
            received += 1
    return total


def _fork_child(work_stream, result_stream):
    processed = 0
    while True:
        data = yield Read(work_stream, 4)
        if not data:
            return processed
        for byte in data:
            doubled = yield Call(_double, byte)
            yield Write(result_stream, bytes([doubled % 251]))
            processed += 1


def _double(value: int):
    yield Tick(3)
    return (value * 2) % 251


def spawn_fork_join(kernel: Kernel, n_children: int, items: int,
                    flush_hint: bool = False) -> List[SimThread]:
    """A parent fans work out to children and sums their results.

    The results stream is sized to hold every result: the parent
    distributes all work before collecting, so a smaller buffer would
    deadlock (children blocked writing results, parent blocked writing
    work).
    """
    result_stream = kernel.stream(max(items, 1), "results")
    work_streams = [kernel.stream(2, "work%d" % i)
                    for i in range(n_children)]
    threads = [kernel.spawn(_fork_parent, work_streams, result_stream,
                            items, flush_hint, name="parent")]
    for i, stream in enumerate(work_streams):
        threads.append(kernel.spawn(_fork_child, stream, result_stream,
                                    name="child%d" % i))
    return threads


def expected_fork_join_total(items: int) -> int:
    return sum((i % 251) * 2 % 251 for i in range(items))


def _spinner(spins: int):
    """One initial tick of real progress, then a pure yield storm."""
    yield Tick(1)
    for __ in range(spins):
        yield YieldCPU()
    return spins


def spawn_yield_storm(kernel: Kernel, n_spinners: int,
                      spins: int) -> List[SimThread]:
    """Threads that bounce through the ready queue moving no data.

    After the initial ticks the progress clock stops while the step
    clock keeps running, so a kernel watchdog with
    ``max_stall < n_spinners * spins`` deterministically raises
    :class:`~repro.runtime.errors.LivelockError`; without a watchdog
    (or with a generous one) the storm drains and the run completes.
    """
    return [kernel.spawn(_spinner, spins, name="spin%d" % i)
            for i in range(n_spinners)]
