"""The Counters variant's machinery (§5.2): slot pools, completion flow."""

import numpy as np
import pytest

from repro import MachineParams, SPCluster


def test_pools_are_wired_symmetrically():
    cl = SPCluster(3, stack="lapi-counters")
    b0, b1, b2 = cl.backends
    pool = MachineParams().counter_pool_slots
    # every backend has a pool per peer and knows every peer's ids
    for me, b in enumerate(cl.backends):
        assert sorted(b._pools) == [x for x in range(3) if x != me]
        for peer in range(3):
            if peer == me:
                continue
            assert len(b._peer_slot_ids[peer]) == pool
            # sender-side ids match the receiver's actual slot objects
            peer_backend = cl.backends[peer]
            assert b._peer_slot_ids[peer] == [
                s.cid for s in peer_backend._pools[me]
            ]


def test_eager_completion_uses_no_handlers():
    cl = SPCluster(2, stack="lapi-counters")

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
            return None
        buf = bytearray(100)
        yield from comm.recv(buf, source=0)
        return None

    res = cl.run(program)
    assert res.stats.cmpl_handlers_threaded.value == 0
    assert res.stats.cmpl_handlers_inline.value == 0
    assert res.stats.ctx_switches.value == 0


def test_rendezvous_still_uses_threaded_handlers():
    """§5.2: 'We could not employ the same strategy for the first phase
    of the Rendezvous protocol.'"""
    cl = SPCluster(2, stack="lapi-counters")

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"x" * 32768, dest=1)
            return None
        buf = bytearray(32768)
        yield from comm.recv(buf, source=0)
        return None

    res = cl.run(program)
    assert res.stats.cmpl_handlers_threaded.value >= 1  # the rts-ack handler
    assert res.stats.ctx_switches.value >= 1


def test_small_pool_with_many_messages():
    """Slot reuse: far more messages than pool slots, strictly ordered
    per flow, must still complete each request exactly once."""
    cl = SPCluster(2, stack="lapi-counters",
                   params=MachineParams(counter_pool_slots=4))

    def program(comm, rank, size):
        n = 40
        if rank == 0:
            for i in range(n):
                yield from comm.send(np.full(64, i % 251, dtype=np.uint8), dest=1)
            return None
        got = []
        buf = np.zeros(64, dtype=np.uint8)
        for _ in range(n):
            yield from comm.recv(buf, source=0)
            got.append(int(buf[0]))
        return got

    res = cl.run(program)
    assert res.values[1] == [i % 251 for i in range(40)]


def test_counters_latency_between_base_and_enhanced_for_rendezvous():
    from repro.bench.harness import pingpong_us

    base = pingpong_us("lapi-base", 16384, reps=5)
    counters = pingpong_us("lapi-counters", 16384, reps=5)
    enhanced = pingpong_us("lapi-enhanced", 16384, reps=5)
    assert enhanced < counters < base


def test_counters_matches_enhanced_for_eager():
    from repro.bench.harness import pingpong_us

    counters = pingpong_us("lapi-counters", 256, reps=5)
    enhanced = pingpong_us("lapi-enhanced", 256, reps=5)
    assert abs(counters - enhanced) < 3.0
