"""Table 2 — MPI communication modes and their internal protocols.

Regenerates the translation table and measures one send per (mode,
size-class) cell, asserting the protocol each cell actually uses.
"""

import numpy as np
import pytest

from repro import MachineParams, SPCluster
from repro.mpi.protocol import (
    BUFFERED,
    EAGER,
    READY,
    RENDEZVOUS,
    STANDARD,
    SYNCHRONOUS,
    select_protocol,
)

EAGER_LIMIT = MachineParams().eager_limit
TABLE2 = [
    (STANDARD, EAGER_LIMIT, EAGER),
    (STANDARD, EAGER_LIMIT + 1, RENDEZVOUS),
    (READY, EAGER_LIMIT + 1, EAGER),
    (SYNCHRONOUS, 1, RENDEZVOUS),
    (BUFFERED, EAGER_LIMIT, EAGER),
    (BUFFERED, EAGER_LIMIT + 1, RENDEZVOUS),
]


@pytest.mark.parametrize("mode,size,expected", TABLE2)
def test_translation(mode, size, expected):
    assert select_protocol(mode, size, EAGER_LIMIT) == expected


def _send_with_mode(mode, size):
    cluster = SPCluster(2, stack="lapi-enhanced")
    payload = bytes(size)

    def program(comm, rank, n):
        if rank == 0:
            if mode == BUFFERED:
                comm.buffer_attach(2 * size + 1024)
            if mode == READY:
                yield from comm.barrier()
            sender = {
                STANDARD: comm.send,
                SYNCHRONOUS: comm.ssend,
                READY: comm.rsend,
                BUFFERED: comm.bsend,
            }[mode]
            yield from sender(payload, dest=1)
            return None
        buf = bytearray(size)
        if mode == READY:
            req = yield from comm.irecv(buf, source=0)
            yield from comm.barrier()
            yield from comm.wait(req)
        else:
            yield from comm.recv(buf, source=0)
        return None

    result = cluster.run(program)
    return result.stats


@pytest.mark.parametrize("mode,size,expected", TABLE2)
def test_modes_use_their_protocol(benchmark, mode, size, expected):
    stats = benchmark.pedantic(
        lambda: _send_with_mode(mode, size), rounds=1, iterations=1
    )
    if expected == EAGER:
        assert stats.eager_sends.value >= 1
        assert stats.rendezvous_started.value == 0
    else:
        assert stats.rendezvous_started.value >= 1


def test_print_table2():
    print("\nTable 2 — MPI communication mode -> internal protocol")
    for mode in (STANDARD, READY, SYNCHRONOUS, BUFFERED):
        small = select_protocol(mode, EAGER_LIMIT, EAGER_LIMIT)
        large = select_protocol(mode, EAGER_LIMIT + 1, EAGER_LIMIT)
        rule = small if small == large else f"{small} if size<=limit else {large}"
        print(f"  {mode:<12} -> {rule}")
