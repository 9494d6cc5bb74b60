"""MPI non-overtaking under fabric-level packet overtaking.

With heavy random jitter, first packets of consecutive messages arrive
out of order; the LAPI backend must defer matching (announcements are
processed in per-source send order) so receives still match in send
order — the subtlest correctness property of matching over a one-sided
transport.
"""

import numpy as np
import pytest

from repro import ANY_SOURCE, ANY_TAG, MachineParams, SPCluster

JITTERY = dict(route_skew_us=0.0, route_jitter_us=250.0)


def test_first_packets_do_overtake_under_jitter():
    """Sanity for the premise: the fabric really reorders arrivals."""
    cl = SPCluster(2, stack="lapi-enhanced", seed=3,
                   params=MachineParams(**JITTERY), trace=True)

    def program(comm, rank, size):
        n = 20
        if rank == 0:
            for i in range(n):
                yield from comm.send(bytes([i]) * 8, dest=1, tag=5)
            return None
        buf = bytearray(8)
        out = []
        for _ in range(n):
            yield from comm.recv(buf, source=0, tag=5)
            out.append(buf[0])
        return out

    res = cl.run(program)
    assert res.values[1] == list(range(20)), "matching order must be send order"
    arrival_seqs = [r.fields["seq"] for r in cl.tracer.filter(
        node=1, layer="adapter", event="pkt_rx") if r.fields.get("seq") is not None]
    assert arrival_seqs != sorted(arrival_seqs), (
        "test premise broken: no overtaking happened; increase jitter"
    )
    assert res.stats.deferred_announcements.value > 0, (
        "expected the deferral path to engage"
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_ordering_holds_across_seeds(seed):
    cl = SPCluster(2, stack="lapi-enhanced", seed=seed,
                   params=MachineParams(**JITTERY))

    def program(comm, rank, size):
        n = 15
        if rank == 0:
            for i in range(n):
                yield from comm.send(np.full(16, i, dtype=np.uint8), dest=1, tag=2)
            return None
        got = []
        buf = np.zeros(16, dtype=np.uint8)
        for _ in range(n):
            yield from comm.recv(buf, source=0, tag=2)
            got.append(int(buf[0]))
        return got

    assert cl.run(program).values[1] == list(range(15))


def test_wildcard_receives_match_in_send_order_despite_overtaking():
    cl = SPCluster(2, stack="lapi-enhanced", seed=7,
                   params=MachineParams(**JITTERY))

    def program(comm, rank, size):
        n = 12
        if rank == 0:
            for i in range(n):
                yield from comm.send(bytes([i]) * 4, dest=1, tag=100 + i)
            return None
        got = []
        buf = bytearray(4)
        for _ in range(n):
            status = yield from comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
            got.append((buf[0], status.tag))
        return got

    res = cl.run(program)
    assert res.values[1] == [(i, 100 + i) for i in range(12)]


def test_deferred_early_arrival_still_copied_correctly():
    """A deferred message that is also an early arrival: assembled in the
    EA buffer, matched late, copied on WAIT — the full worst-case path."""
    cl = SPCluster(2, stack="lapi-enhanced", seed=11,
                   params=MachineParams(**JITTERY))
    payloads = [bytes([i]) * 700 for i in range(10)]

    def program(comm, rank, size):
        if rank == 0:
            for p in payloads:
                yield from comm.send(p, dest=1, tag=9)
            yield from comm.barrier()
            return None
        # drive progress without posting: everything becomes EA
        for _ in range(200):
            yield from comm.iprobe(source=0, tag=9)
            yield comm.env.timeout(10.0)
        got = []
        buf = bytearray(700)
        for _ in range(10):
            yield from comm.recv(buf, source=0, tag=9)
            got.append(bytes(buf))
        yield from comm.barrier()
        return got

    res = cl.run(program)
    assert res.values[1] == payloads
    assert res.stats.early_arrivals.value >= 5
