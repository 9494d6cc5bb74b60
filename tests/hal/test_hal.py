"""Unit tests for the HAL packet layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hal import Hal, fragment
from repro.machine import Cpu, MachineParams, NodeStats
from repro.network import Adapter, SwitchFabric
from repro.sim import Environment


# ------------------------------------------------------------- fragment


def test_fragment_exact_multiple():
    assert fragment(2048, 1024) == [(0, 1024), (1024, 1024)]


def test_fragment_remainder():
    assert fragment(2500, 1024) == [(0, 1024), (1024, 1024), (2048, 452)]


def test_fragment_zero_bytes_is_one_empty_packet():
    assert fragment(0, 1024) == [(0, 0)]


def test_fragment_rejects_bad_args():
    with pytest.raises(ValueError):
        fragment(-1, 1024)
    with pytest.raises(ValueError):
        fragment(10, 0)


@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=1, max_value=4096))
def test_fragment_covers_everything_once(nbytes, payload):
    chunks = fragment(nbytes, payload)
    # contiguous, non-overlapping, covering [0, nbytes)
    pos = 0
    for off, ln in chunks:
        assert off == pos
        assert 0 <= ln <= payload
        pos += ln
    assert pos == max(nbytes, 0)
    if nbytes > 0:
        assert all(ln > 0 for _off, ln in chunks)


# ------------------------------------------------------------------ Hal


def rig():
    env = Environment()
    params = MachineParams()
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(0))
    stats = [NodeStats(), NodeStats()]
    cpus = [Cpu(env, params, s) for s in stats]
    adapters = [Adapter(env, params, fabric, i, stats[i]) for i in range(2)]
    hals = [Hal(env, cpus[i], adapters[i], params, stats[i], 30) for i in range(2)]
    return env, params, hals, stats


def test_oversized_payload_rejected():
    env, params, hals, stats = rig()

    def proc():
        yield from hals[0].send("user", 1, {"kind": "x"}, b"z" * 5000)

    env.process(proc())
    with pytest.raises(ValueError, match="exceeds packet_payload"):
        env.run()


def test_send_charges_hal_cost_and_delivers():
    env, params, hals, stats = rig()
    got = []

    def sender():
        t0 = env.now
        yield from hals[0].send("user", 1, {"kind": "t"}, b"hello")
        got.append(env.now - t0)

    def receiver():
        yield hals[1].wait_rx()
        pkt = hals[1].poll()
        got.append(pkt.payload)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert got[0] >= params.hal_send_pkt_us
    assert got[1] == b"hello"


def test_header_bytes_accounted_on_wire():
    env, params, hals, stats = rig()

    def sender():
        yield from hals[0].send("user", 1, {"kind": "t"}, b"12345678")

    env.process(sender())
    env.run()
    assert stats[0].bytes_on_wire.value == 30 + 8


def test_charge_recv_costs_time():
    env, params, hals, stats = rig()
    marks = []

    def proc():
        t0 = env.now
        yield from hals[0].charge_recv("user")
        marks.append(env.now - t0)

    env.process(proc())
    env.run()
    assert marks[0] == pytest.approx(params.hal_recv_pkt_us)
