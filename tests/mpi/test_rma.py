"""MPI-3 RMA conformance sweep.

Every data-movement call × every synchronization mode × all four MPI
stacks × both progress modes, byte-identity-checked against expected
contents (and, for the halo workload, against an actual two-sided
reference execution).  The raw-lapi stack has no Communicator; its
window-buffer fast path is covered in ``tests/lapi``.
"""

import random

import numpy as np
import pytest

from repro import MachineParams, SPCluster
from repro.mpi import RmaError, Vector, WindowBuffer
from repro.mpi.derived import Indexed

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
MODES = ("polling", "interrupt")


def cluster(n=2, stack="lapi-enhanced", mode="polling", **overrides):
    params = MachineParams(**overrides) if overrides else None
    return SPCluster(n, stack=stack, params=params,
                     interrupt_mode=(mode == "interrupt"))


# ======================================================================
#                    fence mode: every data-movement call
# ======================================================================
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_fence_put_get_all_ranks(stack, mode):
    """Ring halo: put to right neighbour, get from left, 3 ranks."""
    n = 3

    def program(comm, rank, size):
        win = yield from comm.win_create(48)
        for i in range(48):
            win.mem[i] = rank + 1
        yield from win.fence()
        right, left = (rank + 1) % size, (rank - 1) % size
        yield from win.put(bytes([0xA0 + rank]) * 16, right, 0)
        yield from win.fence()
        got = bytearray(16)
        yield from win.get(got, left, 16)
        yield from win.fence()
        yield from win.free()
        return bytes(win.mem), bytes(got)

    res = cluster(n, stack, mode).run(program)
    for rank in range(n):
        mem, got = res.values[rank]
        left = (rank - 1) % n
        assert mem == bytes([0xA0 + left]) * 16 + bytes([rank + 1]) * 32
        assert got == bytes([left + 1]) * 16


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_fence_accumulate_and_get_accumulate(stack, mode):
    n = 3

    def program(comm, rank, size):
        win = yield from comm.win_create(32)
        yield from win.fence()
        contrib = np.full(4, rank + 1, dtype=np.int64)
        yield from win.accumulate(contrib, 0, 0, op="sum", dtype="<i8")
        yield from win.fence()
        old = np.zeros(4, dtype=np.int64)
        if rank == 0:
            # epoch after the sums: fetch-then-add in one atomic op
            yield from win.get_accumulate(
                np.full(4, 100, dtype=np.int64), old, 0, 0,
                op="sum", dtype="<i8")
        yield from win.fence()
        yield from win.free()
        return np.frombuffer(bytes(win.mem), dtype=np.int64).tolist(), old.tolist()

    res = cluster(n, stack, mode).run(program)
    total = sum(r + 1 for r in range(n))  # 6
    mem0, old0 = res.values[0]
    assert old0 == [total] * 4
    assert mem0[:4] == [total + 100] * 4


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_fence_fetch_and_op_and_cas(stack):
    n = 3

    def program(comm, rank, size):
        win = yield from comm.win_create(16)
        yield from win.fence()
        old = yield from win.fetch_and_op(1 << rank, 0, 0, op="bor")
        yield from win.fence()
        winner = None
        if rank != 0:
            # both contenders CAS the second word from 0; exactly one wins
            prev = yield from win.compare_and_swap(rank, 0, 0, 8)
            winner = prev == 0
        yield from win.fence()
        yield from win.free()
        return old, winner, win.mem.read_word(0), win.mem.read_word(8)

    res = cluster(n, stack).run(program)
    assert res.values[0][2] == 0b111  # all three bits ORed in
    winners = [res.values[r][1] for r in range(1, n)]
    assert sorted(winners) == [False, True]
    assert res.values[0][3] in (1, 2)  # the winning rank's value


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_rput_rget_requests(stack):
    def program(comm, rank, size):
        win = yield from comm.win_create(32)
        for i in range(32):
            win.mem[i] = 10 * (rank + 1)
        yield from win.fence()
        peer = 1 - rank
        sreq = yield from win.rput(bytes([0xCC]) * 8, peer, 0)
        got = bytearray(8)
        rreq = yield from win.rget(got, peer, 16)
        yield from comm.wait(sreq)
        yield from comm.wait(rreq)
        assert sreq.done and rreq.done
        yield from win.fence()
        yield from win.free()
        return bytes(got), bytes(win.mem[:8])

    res = cluster(2, stack).run(program)
    for rank in range(2):
        got, head = res.values[rank]
        assert got == bytes([10 * (2 - rank)]) * 8
        assert head == bytes([0xCC]) * 8


# ======================================================================
#                      strided (derived datatype) RMA
# ======================================================================
@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("dt_name", ("vector", "indexed"))
def test_strided_put_get_byte_identity(stack, dt_name):
    if dt_name == "vector":
        dt = Vector(count=4, blocklength=2, stride=4)  # 8 of 16 bytes
    else:
        dt = Indexed(blocklengths=(3, 1, 2), displacements=(0, 5, 9))

    def src_of(rank):
        # extent-shaped typed buffer: the datatype gathers the strided
        # slices out of this
        return bytes((0x10 * (rank + 1) + i) % 256 for i in range(dt.extent))

    def program(comm, rank, size):
        win = yield from comm.win_create(64)
        yield from win.fence()
        peer = 1 - rank
        yield from win.put(src_of(rank), peer, 0, datatype=dt, count=1)
        yield from win.fence()
        back = bytearray(dt.extent)
        yield from win.get(back, peer, 0, datatype=dt, count=1)
        yield from win.fence()
        yield from win.free()
        return bytes(win.mem[: dt.extent]), bytes(back)

    res = cluster(2, stack).run(program)
    for rank in range(2):
        mem, back = res.values[rank]
        peer = 1 - rank
        # reference: copy only the flat ranges, leave the gaps zero
        expect_mem = bytearray(dt.extent)
        expect_back = bytearray(dt.extent)
        for off, ln in dt._flat_ranges(1):
            expect_mem[off : off + ln] = src_of(peer)[off : off + ln]
            expect_back[off : off + ln] = src_of(rank)[off : off + ln]
        assert mem == bytes(expect_mem)
        # the round trip gathers my own strided bytes back
        assert back == bytes(expect_back)


# ======================================================================
#                        post/start/complete/wait
# ======================================================================
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_pscw_put_get_accumulate(stack, mode):
    n = 3

    def program(comm, rank, size):
        win = yield from comm.win_create(64)
        for i in range(64):
            win.mem[i] = rank
        right, left = (rank + 1) % size, (rank - 1) % size
        # expose to left (it writes to me), access right
        yield from win.post([left])
        yield from win.start([right])
        yield from win.put(bytes([0xE0 + rank]) * 8, right, 0)
        yield from win.accumulate(np.asarray([rank + 1], dtype=np.int64), right,
                                  8, op="sum", dtype="<i8")
        got = bytearray(4)
        yield from win.get(got, right, 32)
        yield from win.complete()
        yield from win.wait()
        yield from comm.barrier()
        yield from win.free()
        return bytes(win.mem[:16]), bytes(got)

    res = cluster(n, stack, mode).run(program)
    for rank in range(n):
        mem, got = res.values[rank]
        left, right = (rank - 1) % n, (rank + 1) % n
        assert mem[:8] == bytes([0xE0 + left]) * 8
        fill_word = int.from_bytes(bytes([rank]) * 8, "little")
        assert int.from_bytes(mem[8:16], "little") == fill_word + (left + 1)
        assert got == bytes([right]) * 4


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_pscw_self_epoch(stack):
    """post/start to self must not deadlock (no transport loop-back)."""

    def program(comm, rank, size):
        win = yield from comm.win_create(8)
        yield from win.post([rank])
        yield from win.start([rank])
        yield from win.put(b"\x77" * 8, rank, 0)
        yield from win.complete()
        yield from win.wait()
        yield from comm.barrier()
        yield from win.free()
        return bytes(win.mem)

    res = cluster(2, stack).run(program)
    assert all(v == b"\x77" * 8 for v in res.values)


# ======================================================================
#                            lock / unlock
# ======================================================================
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_exclusive_lock_read_modify_write(stack, mode):
    """The canonical passive-target race: get+put under an exclusive
    lock from every rank; the total survives only if locks exclude."""
    n = 3
    rounds = 4

    def program(comm, rank, size):
        win = yield from comm.win_create(8)
        yield from comm.barrier()
        for _ in range(rounds):
            yield from win.lock(0, exclusive=True)
            cur = bytearray(8)
            yield from win.get(cur, 0, 0)
            yield from win.flush(0)  # MPI_Win_flush: get landed, readable
            val = int.from_bytes(cur, "little") + 1
            yield from win.put(val.to_bytes(8, "little"), 0, 0)
            yield from win.unlock(0)
        yield from comm.barrier()
        yield from win.free()
        return win.mem.read_word(0)

    res = cluster(n, stack, mode).run(program)
    assert res.values[0] == n * rounds


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_shared_lock_concurrent_accumulate(stack):
    """Shared locks admit concurrent accumulates (atomic per op)."""
    n = 3

    def program(comm, rank, size):
        win = yield from comm.win_create(8)
        yield from comm.barrier()
        yield from win.lock(0, exclusive=False)
        for _ in range(5):
            yield from win.accumulate(
                np.asarray([rank + 1], dtype=np.int64), 0, 0,
                op="sum", dtype="<i8")
        yield from win.unlock(0)
        yield from comm.barrier()
        yield from win.free()
        return win.mem.read_word(0)

    res = cluster(n, stack).run(program)
    assert res.values[0] == 5 * sum(r + 1 for r in range(n))


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_lock_self_and_fairness(stack):
    """Locking yourself works; an exclusive waiter is not starved."""

    def program(comm, rank, size):
        win = yield from comm.win_create(8)
        yield from comm.barrier()
        if rank == 0:
            yield from win.lock(0, exclusive=True)
            yield from win.put((7).to_bytes(8, "little"), 0, 0)
            yield from win.unlock(0)
        else:
            yield from win.lock(0, exclusive=True)
            old = yield from win.fetch_and_op(1, 0, 0, op="sum")
            yield from win.unlock(0)
        yield from comm.barrier()
        yield from win.free()
        return win.mem.read_word(0) if rank == 0 else None

    res = cluster(2, stack).run(program)
    assert res.values[0] == 8


# ======================================================================
#                    two-sided reference byte-identity
# ======================================================================
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_rma_matches_two_sided_reference(stack):
    """The same halo exchange via RMA and via sendrecv must leave every
    rank's buffer byte-identical."""
    n = 3
    nbytes = 24

    def payload(rank):
        return bytes((rank * 37 + i) % 256 for i in range(nbytes))

    def rma_prog(comm, rank, size):
        win = yield from comm.win_create(nbytes)
        yield from win.fence()
        yield from win.put(payload(rank), (rank + 1) % size, 0)
        yield from win.fence()
        yield from win.free()
        return bytes(win.mem)

    def twosided_prog(comm, rank, size):
        buf = bytearray(nbytes)
        yield from comm.sendrecv(payload(rank), (rank + 1) % size,
                                 buf, (rank - 1) % size, sendtag=9, recvtag=9)
        return bytes(buf)

    rma_res = cluster(n, stack).run(rma_prog)
    ref_res = cluster(n, stack).run(twosided_prog)
    for rank in range(n):
        assert rma_res.values[rank] == ref_res.values[rank]


# ======================================================================
#              post-fence ordering under interrupt-mode delivery
# ======================================================================
def _fence_then_lock_program(seed: int, epochs: int = 6):
    """Each epoch every rank puts a seeded block into its right
    neighbour, fences, gets it back, fences, and then takes rank 0's
    lock for an accumulate and a fetch_and_op.  The lock section shifts
    the timing so that an epoch's get can reach the target ahead of the
    same origin's previous-epoch put."""
    rng = random.Random(seed)
    blocks = []
    for e in range(epochs):
        row = []
        for r in range(3):
            length = rng.randint(8, 64)
            off = rng.randrange(128 - length + 1)
            row.append((off, bytes((37 * r + 11 * e + i) % 255 + 1
                                   for i in range(length))))
        blocks.append(row)

    def program(comm, rank, size):
        win = yield from comm.win_create(176)
        yield from win.fence()
        right = (rank + 1) % size
        bad = []
        for e, row in enumerate(blocks):
            off, data = row[rank]
            yield from win.put(data, right, off)
            yield from win.fence()
            back = bytearray(len(data))
            yield from win.get(back, right, off)
            yield from win.fence()
            if back != data:
                bad.append(e)
            yield from win.lock(0, exclusive=True)
            yield from win.accumulate(bytes(32), 0, 128, op="sum",
                                      dtype="int64")
            yield from win.fetch_and_op(1, 0, 168)
            yield from win.unlock(0)
        yield from win.fence()
        count = win.mem.read_word(168)
        yield from win.free()
        return bad, count

    return program


@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("seed", range(16))
def test_get_after_fence_sees_own_previous_put(stack, seed):
    """A get issued right after a fence must see the origin's own put
    from the epoch the fence closed, even when the put's packet is
    overtaken on another route."""
    res = SPCluster(3, stack=stack, seed=seed,
                    interrupt_mode=True).run(_fence_then_lock_program(seed))
    for rank, (bad, count) in enumerate(res.values):
        assert bad == [], f"rank {rank} read wrong bytes in epochs {bad}"
        if rank == 0:
            assert count == 3 * 6


# ======================================================================
#                          errors and lifecycle
# ======================================================================
def test_window_errors():
    def program(comm, rank, size):
        win = yield from comm.win_create(16)
        yield from win.fence()
        try:
            yield from win.accumulate(b"\x01", 1 - rank, 0, op="bogus")
            raise AssertionError("bogus op accepted")
        except RmaError:
            pass
        try:
            yield from win.unlock(1 - rank)
            raise AssertionError("unlock without lock accepted")
        except RmaError:
            pass
        yield from win.free()
        try:
            yield from win.put(b"\x01", 1 - rank, 0)
            raise AssertionError("put on freed window accepted")
        except RmaError:
            pass
        return True

    for stack in MPI_STACKS:
        res = cluster(2, stack).run(program)
        assert all(res.values)


def test_win_create_from_existing_buffer():
    def program(comm, rank, size):
        seed = WindowBuffer(b"\x01\x02\x03\x04" * 4)
        win = yield from comm.win_create(seed)
        assert win.mem is seed
        yield from win.fence()
        got = bytearray(4)
        yield from win.get(got, 1 - rank, 0)
        yield from win.fence()
        yield from win.free()
        return bytes(got)

    res = cluster(2, "lapi-enhanced").run(program)
    assert all(v == b"\x01\x02\x03\x04" for v in res.values)


def test_rma_metrics_and_trace(stack="lapi-enhanced"):
    from repro.obs import rma_op_phases, rma_summary

    def program(comm, rank, size):
        win = yield from comm.win_create(16)
        yield from win.fence()
        yield from win.put(b"\x11" * 8, 1 - rank, 0)
        yield from win.fence()
        yield from win.free()

    cl = cluster(2, stack)
    cl.trace = True
    # SPCluster wires the tracer at construction; rebuild with trace on
    cl = SPCluster(2, stack=stack, trace=True)
    res = cl.run(program)
    assert res.metrics["aggregate"]["counters"]["rma.put"] == 2
    assert res.metrics["aggregate"]["counters"]["rma.windows"] == 2
    summary = rma_summary(cl.tracer)
    assert summary["ops"]["put"] == 2
    assert summary["unpaired_fences"] == 0
    # fences: 2 per rank (explicit) + 1 inside free
    assert all(len(v) == 3 for v in summary["fences"].values())
    phases = rma_op_phases(cl.tracer)
    assert len(phases) == 2
    for ph in phases:
        assert ph["latency_us"] > 0
        assert ph["bytes"] == 8
