"""Receive matching under every arrival timing: the irecv/arrival race.

``irecv`` looks up the early-arrival queue, then charges the match cost
(a yield).  A header handler run in interrupt context during that yield
can park the very message being received in the early queue; unless
``irecv`` re-checks before posting, the message and the posted receive
strand each other and the job deadlocks.  The deadlock windows are
0.88 us wide (at default params, on every LAPI stack, they open at 31.28,
32.66 and 56.52 us of receiver delay), so a 0.5 us delay sweep steps
into every one of them.
"""

import numpy as np
import pytest

from repro.cluster import SPCluster

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
SIZES = (8, 64, 1024)
DELAYS_US = [i * 0.5 for i in range(121)]  # 0 .. 60 us


def _delayed_recv(size: int, delay_us: float, tag: int = 7):
    payload = bytes((i * 31 + 7) % 256 for i in range(size))

    def program(comm, rank, _size):
        if rank == 0:
            yield from comm.send(payload, dest=1, tag=tag)
            return None
        buf = np.zeros(size, dtype=np.uint8)
        yield comm.env.timeout(delay_us)
        req = yield from comm.irecv(buf, 0, tag)
        yield from comm.wait(req)
        return bytes(buf)

    return payload, program


def test_reproducer_irecv_during_match_charge_does_not_deadlock():
    """The 8 B eager message lands while irecv pays its match cost."""
    payload, program = _delayed_recv(8, 31.3)
    res = SPCluster(2, "lapi-enhanced", interrupt_mode=True).run(program)
    assert res.values[1] == payload


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ("polling", "interrupt"))
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_receive_delay_sweep(stack, mode, size):
    failures = []
    for delay in DELAYS_US:
        payload, program = _delayed_recv(size, delay)
        cluster = SPCluster(2, stack, interrupt_mode=mode == "interrupt")
        try:
            got = cluster.run(program).values[1]
        except Exception as exc:  # a deadlock names the stuck ranks
            failures.append(f"{delay}us: {type(exc).__name__}: {exc}")
            continue
        if got != payload:
            failures.append(f"{delay}us: wrong bytes")
    assert not failures, f"{len(failures)} of {len(DELAYS_US)} delays failed: {failures[:5]}"
