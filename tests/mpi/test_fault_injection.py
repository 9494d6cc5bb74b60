"""Fault injection at the MPI level: packet loss, FIFO overflow, reordering.

The reliability machinery (windows, cumulative acks, retransmission)
must make MPI correct over a lossy, reordering fabric on every stack.
"""

import numpy as np
import pytest

from repro import MachineParams, SPCluster

MPI_STACKS = ("native", "lapi-enhanced")


def transfer_program(payload):
    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(payload, dest=1)
            # keep driving progress so retransmissions flow even after
            # the send returns (polling discipline)
            yield from comm.barrier()
            return None
        buf = np.zeros(len(payload), dtype=np.uint8)
        yield from comm.recv(buf, source=0)
        yield from comm.barrier()
        return bytes(buf)

    return program


@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("loss", [0.05, 0.2])
def test_exact_delivery_under_loss(stack, loss):
    payload = np.random.default_rng(1).integers(0, 256, 60000, dtype=np.uint8)
    cl = SPCluster(2, stack=stack, seed=9,
                   params=MachineParams(packet_loss_rate=loss))
    res = cl.run(transfer_program(payload.tobytes()))
    assert res.values[1] == payload.tobytes()
    if cl.fabric.dropped > 0:
        assert res.stats.retransmissions.value > 0


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_exact_delivery_under_heavy_reordering(stack):
    payload = np.random.default_rng(2).integers(0, 256, 30000, dtype=np.uint8)
    cl = SPCluster(2, stack=stack, seed=5,
                   params=MachineParams(route_skew_us=120.0, route_jitter_us=40.0))
    res = cl.run(transfer_program(payload.tobytes()))
    assert res.values[1] == payload.tobytes()


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_loss_plus_reordering_together(stack):
    payload = np.random.default_rng(3).integers(0, 256, 12000, dtype=np.uint8)
    cl = SPCluster(2, stack=stack, seed=17,
                   params=MachineParams(packet_loss_rate=0.1,
                                        route_skew_us=80.0,
                                        route_jitter_us=30.0))
    res = cl.run(transfer_program(payload.tobytes()))
    assert res.values[1] == payload.tobytes()


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_recv_fifo_overflow_recovered_by_retransmit(stack):
    """A tiny adapter FIFO forces drops under load; correctness must hold."""
    payload = np.random.default_rng(4).integers(0, 256, 16000, dtype=np.uint8)
    cl = SPCluster(2, stack=stack, seed=2,
                   params=MachineParams(adapter_recv_fifo=4))

    def program(comm, rank, size):
        if rank == 0:
            reqs = []
            for _ in range(4):
                r = yield from comm.isend(payload, dest=1)
                reqs.append(r)
            yield from comm.waitall(reqs)
            yield from comm.barrier()
            return None
        bufs = [np.zeros(len(payload), dtype=np.uint8) for _ in range(4)]
        for b in bufs:
            yield from comm.recv(b, source=0)
        yield from comm.barrier()
        return all(np.array_equal(b, payload) for b in bufs)

    res = cl.run(program)
    assert res.values[1] is True


def test_message_ordering_preserved_under_loss():
    """Non-overtaking must survive retransmissions."""
    cl = SPCluster(2, stack="lapi-enhanced", seed=8,
                   params=MachineParams(packet_loss_rate=0.15))

    def program(comm, rank, size):
        n = 12
        if rank == 0:
            for i in range(n):
                yield from comm.send(np.full(600, i, dtype=np.uint8), dest=1, tag=3)
            yield from comm.barrier()
            return None
        seen = []
        buf = np.zeros(600, dtype=np.uint8)
        for _ in range(n):
            yield from comm.recv(buf, source=0, tag=3)
            seen.append(int(buf[0]))
        yield from comm.barrier()
        return seen

    res = cl.run(program)
    assert res.values[1] == list(range(12))


def test_collectives_survive_loss():
    cl = SPCluster(4, stack="lapi-enhanced", seed=11,
                   params=MachineParams(packet_loss_rate=0.08))

    def program(comm, rank, size):
        out = np.zeros(64)
        yield from comm.allreduce(np.full(64, float(rank + 1)), out, op="sum")
        return float(out[0])

    res = cl.run(program)
    assert res.values == [10.0] * 4


def test_nas_kernel_survives_loss():
    from repro.nas import run_kernel

    cl = SPCluster(4, stack="lapi-enhanced", seed=13,
                   params=MachineParams(packet_loss_rate=0.03))
    result = run_kernel("cg", cl)
    assert all(o.verified for o in result.values)
