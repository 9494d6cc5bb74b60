"""Derived datatypes (the paper's future work) — pack/unpack semantics
and end-to-end transfers of non-contiguous data."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SPCluster
from repro.mpi.derived import BYTE, DOUBLE, Contiguous, Indexed, Primitive, Vector


# ---------------------------------------------------------------- pure


def test_primitive_pack_roundtrip():
    buf = bytearray(b"abcdefgh")
    t = Primitive(4)
    assert t.pack(buf) == b"abcd"
    out = bytearray(8)
    t.unpack(b"wxyz", out)
    assert bytes(out) == b"wxyz\x00\x00\x00\x00"


def test_contiguous_counts_elements():
    t = Contiguous(3, Primitive(2))
    assert t.size == 6
    assert t.extent == 6
    buf = bytes(range(12))
    assert t.pack(buf, count=2) == buf


def test_vector_selects_strided_columns():
    # a 4x4 byte matrix; pick column 1 via Vector(count=4, bl=1, stride=4)
    m = np.arange(16, dtype=np.uint8).reshape(4, 4)
    col = Vector(count=4, blocklength=1, stride=4, base=BYTE)
    assert col.size == 4
    assert col.pack(m.reshape(-1)[1:]) == bytes([1, 5, 9, 13])


def test_vector_unpack_scatter():
    col = Vector(count=3, blocklength=2, stride=4, base=BYTE)
    out = bytearray(12)
    col.unpack(b"AABBCC", out)
    assert bytes(out) == b"AA\x00\x00BB\x00\x00CC\x00\x00"


def test_vector_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        Vector(count=2, blocklength=4, stride=2)


def test_indexed_blocks():
    t = Indexed(blocklengths=[2, 1], displacements=[0, 5], base=BYTE)
    assert t.size == 3
    assert t.extent == 6
    assert t.pack(b"ABCDEFGH") == b"ABF"


def test_indexed_validation():
    with pytest.raises(ValueError):
        Indexed([1], [0, 1])
    with pytest.raises(ValueError):
        Indexed([], [])
    with pytest.raises(ValueError):
        Indexed([0], [0])


def test_pack_past_buffer_rejected():
    t = Contiguous(16)
    with pytest.raises(ValueError, match="past the buffer"):
        t.pack(b"short")


def test_unpack_length_mismatch_rejected():
    t = Contiguous(4)
    with pytest.raises(ValueError, match="does not match"):
        t.unpack(b"toolongdata", bytearray(16))


def test_nested_vector_of_doubles():
    # every other double from an 8-double array
    t = Vector(count=4, blocklength=1, stride=2, base=DOUBLE)
    arr = np.arange(8, dtype=np.float64)
    wire = t.pack(arr)
    got = np.frombuffer(wire, dtype=np.float64)
    assert np.array_equal(got, arr[::2])


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_vector_pack_unpack_roundtrip_property(count, bl, extra):
    stride = bl + extra
    t = Vector(count=count, blocklength=bl, stride=stride)
    n = t.extent + 8
    rng = np.random.default_rng(count * 100 + bl * 10 + extra)
    src = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    wire = t.pack(src)
    assert len(wire) == t.size
    dst = bytearray(n)
    t.unpack(wire, dst)
    redo = t.pack(bytes(dst))
    assert redo == wire


# ------------------------------------------------------------- end-to-end


def test_send_recv_matrix_column():
    """Classic use: ship one column of a row-major matrix."""
    cl = SPCluster(2, stack="lapi-enhanced")
    n = 16
    col_t = Vector(count=n, blocklength=8, stride=n * 8, base=BYTE)

    def program(comm, rank, size):
        m = np.arange(n * n, dtype=np.float64).reshape(n, n)
        if rank == 0:
            # send column 3 (8-byte doubles, stride = row length)
            yield from comm.send(m.reshape(-1).view(np.uint8)[3 * 8:],
                                 dest=1, datatype=col_t)
            return None
        out = np.zeros((n, n), dtype=np.float64)
        yield from comm.recv(out.reshape(-1).view(np.uint8)[5 * 8:],
                             source=0, datatype=col_t)
        return out

    res = cl.run(program)
    out = res.values[1]
    m = np.arange(n * n, dtype=np.float64).reshape(n, n)
    assert np.array_equal(out[:, 5], m[:, 3])
    # everything else untouched
    out[:, 5] = 0
    assert np.count_nonzero(out) == 0


def test_derived_type_charges_pack_copies():
    cl = SPCluster(2, stack="lapi-enhanced")
    t = Contiguous(512)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(bytes(512), dest=1, datatype=t)
            return None
        buf = bytearray(512)
        yield from comm.recv(buf, source=0, datatype=t)
        return None

    res = cl.run(program)
    # pack copy at sender + unpack copy at receiver, on top of transport
    assert res.stats.bytes_copied.value >= 2 * 512


def test_waitany_returns_first_completion():
    cl = SPCluster(3, stack="lapi-enhanced")

    def program(comm, rank, size):
        if rank == 0:
            bufs = [np.zeros(8, dtype=np.uint8) for _ in range(2)]
            r1 = yield from comm.irecv(bufs[0], source=1)
            r2 = yield from comm.irecv(bufs[1], source=2)
            idx, status = yield from comm.waitany([r1, r2])
            yield from comm.waitall([r1 if idx == 1 else r2])
            return (idx, status.source)
        yield comm.env.timeout(100.0 if rank == 2 else 5000.0)
        yield from comm.send(bytes([rank]) * 8, dest=0)
        return None

    res = cl.run(program)
    idx, source = res.values[0]
    assert (idx, source) == (1, 2), "rank 2 sent first, so req index 1 wins"
