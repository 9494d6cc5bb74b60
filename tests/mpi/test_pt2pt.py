"""Point-to-point MPI semantics across all four stacks."""

import numpy as np
import pytest

from repro import ANY_SOURCE, ANY_TAG, MachineParams, SPCluster

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")


def cluster(n=2, stack="lapi-enhanced", **overrides):
    params = MachineParams(**overrides) if overrides else None
    return SPCluster(n, stack=stack, params=params)


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_blocking_send_recv_small(stack):
    cl = cluster(stack=stack)
    payload = np.arange(100, dtype=np.uint8)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(payload, dest=1, tag=5)
            return None
        buf = np.zeros(100, dtype=np.uint8)
        status = yield from comm.recv(buf, source=0, tag=5)
        return (bytes(buf), status.source, status.tag, status.count)

    res = cl.run(program)
    data, source, tag, count = res.values[1]
    assert data == payload.tobytes()
    assert (source, tag, count) == (0, 5, 100)


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_large_message_rendezvous(stack):
    cl = cluster(stack=stack)
    n = 64 * 1024  # >> eager limit
    payload = np.random.default_rng(1).integers(0, 256, n, dtype=np.uint8)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(payload, dest=1)
            return None
        buf = np.zeros(n, dtype=np.uint8)
        yield from comm.recv(buf, source=0)
        return bytes(buf)

    res = cl.run(program)
    assert res.values[1] == payload.tobytes()
    assert res.stats.rendezvous_started.value == 1


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_early_arrival_then_recv(stack):
    """Send arrives before the receive is posted."""
    cl = cluster(stack=stack)
    payload = b"early bird" * 10

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(payload, dest=1, tag=1)
            return None
        # drive progress *without* posting the receive: the message must
        # land in the early-arrival buffer (probe spins the dispatcher)
        yield from comm.probe(source=0, tag=1)
        buf = bytearray(len(payload))
        yield from comm.recv(buf, source=0, tag=1)
        return bytes(buf)

    res = cl.run(program)
    assert res.values[1] == payload
    assert res.stats.early_arrivals.value >= 1


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_nonblocking_isend_irecv_wait(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        me = np.full(64, rank, dtype=np.uint8)
        other = np.zeros(64, dtype=np.uint8)
        rreq = yield from comm.irecv(other, source=1 - rank)
        sreq = yield from comm.isend(me, dest=1 - rank)
        yield from comm.waitall([sreq, rreq])
        return int(other[0])

    res = cl.run(program)
    assert res.values == [1, 0]


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_wildcard_source_and_tag(stack):
    cl = cluster(n=3, stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            got = []
            buf = bytearray(8)
            for _ in range(2):
                status = yield from comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                got.append((status.source, status.tag, bytes(buf[: status.count])))
            return sorted(got)
        yield comm.env.timeout(rank * 100.0)
        yield from comm.send(bytes([rank]) * 4, dest=0, tag=10 + rank)
        return None

    res = cl.run(program)
    assert res.values[0] == [
        (1, 11, b"\x01\x01\x01\x01"),
        (2, 12, b"\x02\x02\x02\x02"),
    ]


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_message_ordering_same_pair(stack):
    """Non-overtaking: same (src, dst, tag) messages match in send order."""
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        n = 8
        if rank == 0:
            for i in range(n):
                yield from comm.send(np.full(16, i, dtype=np.uint8), dest=1, tag=3)
            return None
        seen = []
        buf = np.zeros(16, dtype=np.uint8)
        for _ in range(n):
            yield from comm.recv(buf, source=0, tag=3)
            seen.append(int(buf[0]))
        return seen

    res = cl.run(program)
    assert res.values[1] == list(range(8))


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_tag_selectivity(stack):
    """A receive for tag B skips an earlier message with tag A."""
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"AAAA", dest=1, tag=1)
            yield from comm.send(b"BBBB", dest=1, tag=2)
            return None
        yield comm.env.timeout(5000.0)  # both messages are early arrivals
        buf = bytearray(4)
        yield from comm.recv(buf, source=0, tag=2)
        first = bytes(buf)
        yield from comm.recv(buf, source=0, tag=1)
        return (first, bytes(buf))

    res = cl.run(program)
    assert res.values[1] == (b"BBBB", b"AAAA")


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_ssend_synchronous_semantics(stack):
    """Ssend cannot complete before the matching receive is posted."""
    cl = cluster(stack=stack)
    post_time = 20000.0

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.ssend(b"sync", dest=1)
            return comm.env.now
        yield comm.env.timeout(post_time)
        buf = bytearray(4)
        yield from comm.recv(buf, source=0)
        return None

    res = cl.run(program)
    assert res.values[0] >= post_time


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_rsend_with_posted_receive(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 1:
            buf = bytearray(5)
            req = yield from comm.irecv(buf, source=0)
            # make sure the receive is posted well before the rsend
            yield from comm.barrier()
            yield from comm.wait(req)
            return bytes(buf)
        yield from comm.barrier()
        yield from comm.rsend(b"ready", dest=1)
        return None

    res = cl.run(program)
    assert res.values[1] == b"ready"


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_bsend_buffered_mode(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            comm.buffer_attach(64 * 1024)
            t0 = comm.env.now
            yield from comm.bsend(b"x" * 1000, dest=1)
            local_done = comm.env.now
            # receiver posts very late; bsend must already be done
            yield comm.env.timeout(50000.0)
            return local_done - t0
        yield comm.env.timeout(30000.0)
        buf = bytearray(1000)
        yield from comm.recv(buf, source=0)
        assert bytes(buf) == b"x" * 1000
        return None

    res = cl.run(program)
    assert res.values[0] < 10000.0, "bsend should complete locally"


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_sendrecv_exchange(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        mine = np.full(32, rank + 10, dtype=np.uint8)
        theirs = np.zeros(32, dtype=np.uint8)
        yield from comm.sendrecv(mine, 1 - rank, theirs, 1 - rank)
        return int(theirs[0])

    res = cl.run(program)
    assert res.values == [11, 10]


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_zero_byte_message(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"", dest=1, tag=9)
            return None
        buf = bytearray(0)
        status = yield from comm.recv(buf, source=0, tag=9)
        return status.count

    res = cl.run(program)
    assert res.values[1] == 0


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_test_polls_without_blocking(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            yield comm.env.timeout(2000.0)
            yield from comm.send(b"late", dest=1)
            return None
        buf = bytearray(4)
        req = yield from comm.irecv(buf, source=0)
        polls = 0
        while not (yield from comm.test(req)):
            polls += 1
            yield comm.env.timeout(100.0)
        return polls

    res = cl.run(program)
    assert res.values[1] > 3


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_probe_and_iprobe(stack):
    cl = cluster(stack=stack)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"probe me", dest=1, tag=4)
            return None
        status = yield from comm.probe(source=0, tag=4)
        buf = bytearray(status.count)
        yield from comm.recv(buf, source=status.source, tag=status.tag)
        return bytes(buf)

    res = cl.run(program)
    assert res.values[1] == b"probe me"


def test_truncation_is_fatal():
    cl = cluster(stack="lapi-enhanced")

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"way too long", dest=1)
            return None
        buf = bytearray(4)
        yield from comm.recv(buf, source=0)

    from repro.mpi.backends.base import MpiFatal

    with pytest.raises(MpiFatal, match="truncates"):
        cl.run(program)


def test_data_integrity_many_sizes():
    """Byte-exact delivery across the eager/rendezvous boundary."""
    for stack in MPI_STACKS:
        cl = cluster(stack=stack)
        sizes = [1, 3, 1023, 1024, 1025, 4096, 4097, 10000]
        rng = np.random.default_rng(2)
        payloads = [rng.integers(0, 256, s, dtype=np.uint8).tobytes() for s in sizes]

        def program(comm, rank, size, payloads=payloads, sizes=sizes):
            if rank == 0:
                for p in payloads:
                    yield from comm.send(p, dest=1)
                return None
            got = []
            for s in sizes:
                buf = bytearray(s)
                yield from comm.recv(buf, source=0)
                got.append(bytes(buf))
            return got

        res = cl.run(program)
        assert res.values[1] == payloads, f"corruption in stack {stack}"
