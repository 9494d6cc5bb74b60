"""MPI in interrupt mode: progress without the receiver polling."""

import numpy as np
import pytest

from repro import MachineParams, SPCluster

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")


def spin_program(marker=7, size_bytes=64):
    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(bytes([marker]) * size_bytes, dest=1)
            return None
        buf = np.zeros(size_bytes, dtype=np.uint8)
        yield from comm.irecv(buf, source=0)
        # no MPI calls: only interrupts can complete this
        while buf[-1] != marker:
            yield from comm.backend.cpu.execute(
                "user", comm.backend.params.poll_check_us
            )
        yield comm.env.timeout(2000.0)  # let handlers retire
        return bytes(buf)

    return program


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_interrupts_complete_receive_without_polling(stack):
    cl = SPCluster(2, stack=stack, interrupt_mode=True)
    res = cl.run(spin_program())
    assert res.values[1] == bytes([7]) * 64
    assert res.stats.interrupts.value >= 1


def test_without_interrupts_spin_never_completes():
    """Sanity: in polling mode the same program deadlocks (the spin loop
    never drives the dispatcher)."""
    from repro.sim import SimulationError

    cl = SPCluster(2, stack="lapi-enhanced", interrupt_mode=False)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"\x07" * 64, dest=1)
            return None
        buf = np.zeros(64, dtype=np.uint8)
        yield from comm.irecv(buf, source=0)
        # bounded spin so the test terminates: data must NOT arrive
        for _ in range(200):
            yield from comm.backend.cpu.execute("user", 1.0)
        return int(buf[-1])

    res = cl.run(program)
    assert res.values[1] == 0, "no interrupts, no progress — data cannot land"


def test_native_takes_hysteresis_dwells_lapi_does_not():
    native = SPCluster(2, stack="native", interrupt_mode=True).run(spin_program())
    lapi = SPCluster(2, stack="lapi-enhanced", interrupt_mode=True).run(spin_program())
    assert native.stats.hysteresis_dwells.value >= 1
    assert lapi.stats.hysteresis_dwells.value == 0


def test_interrupt_latency_native_worse_than_lapi():
    """The hysteresis dwell delays the receiver's *reply* (it holds the
    CPU), so the penalty shows in the steady-state ping-pong, not in a
    one-shot receive."""
    from repro.bench.harness import interrupt_pingpong_us

    native = interrupt_pingpong_us("native", 64, reps=6)
    lapi = interrupt_pingpong_us("lapi-enhanced", 64, reps=6)
    assert native > 1.5 * lapi


def test_rendezvous_works_in_interrupt_mode():
    cl = SPCluster(2, stack="lapi-enhanced", interrupt_mode=True)
    payload = np.random.default_rng(4).integers(0, 256, 32768, dtype=np.uint8)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(payload, dest=1)
            return None
        buf = np.zeros(32768, dtype=np.uint8)
        yield from comm.recv(buf, source=0)
        return bool(np.array_equal(buf, payload))

    assert cl.run(program).values[1]
