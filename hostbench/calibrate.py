"""A fixed pure-Python yardstick for the host's current speed.

The benchmark's host times are CPU seconds of one process, and on a
shared virtual machine the same code runs over twice as slow in
some minutes as in others.  :func:`kernel_seconds` times a small
discrete-event loop written in the same style as the simulator (a heap
of timed events, generator processes, slotted message objects, counter
dicts, buffer slicing), right beside every timed piece of the workload,
so the ratio of the two cancels the host's speed of the moment.  The
kernel is part of the benchmark, not of the program under test: no
change to ``src/`` moves it.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_S", "kernel", "kernel_seconds"]

#: :func:`kernel_seconds` on the reference host, a quiet 2-vCPU
#: x86-64 virtual machine with CPython 3.11: normalised host times read
#: as seconds on that host
REFERENCE_S = 0.0250

N_PROCS = 16
N_EVENTS = 16_000
_BLOCK = bytes(range(256)) * 16


class _Msg:
    __slots__ = ("src", "dst", "tag", "data")

    def __init__(self, src: int, dst: int, tag: int, data: bytes):
        self.src, self.dst, self.tag, self.data = src, dst, tag, data


def _proc(pid: int, inbox: dict, counters: dict):
    n = 0
    while True:
        n += 1
        size = 16 + (pid * 131 + n * 37) % 1500
        msg = _Msg(pid, (pid + n) % N_PROCS, n & 7, _BLOCK[n % 64:][:size])
        inbox.setdefault(msg.dst, []).append(msg)
        got = inbox.get(pid)
        if got:
            buf = bytearray(2048)
            for m in got:
                buf[:len(m.data)] = m.data
                key = ("bytes", m.tag)
                counters[key] = counters.get(key, 0) + len(m.data)
            got.clear()
        yield 0.25 + (n * 7 + pid) % 13 * 0.5


def kernel() -> int:
    """Run the event loop once; returns a checksum of its counters."""
    inbox: dict = {}
    counters: dict = {}
    procs = [_proc(pid, inbox, counters) for pid in range(N_PROCS)]
    heap = [(0.0, pid, pid) for pid in range(N_PROCS)]
    seq = N_PROCS
    for _ in range(N_EVENTS):
        now, _seq, pid = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + next(procs[pid]), seq, pid))
    return sum(counters.values())


CHECKSUM = kernel()


def kernel_seconds(clock=time.process_time) -> float:
    """CPU seconds of one :func:`kernel` run, with the cyclic collector
    off so the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        result = kernel()
        elapsed = clock() - t0
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError("calibration kernel gave a different checksum")
    return elapsed
