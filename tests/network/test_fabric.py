"""Unit tests for the switch fabric and adapters."""

import numpy as np
import pytest

from repro.machine import MachineParams, NodeStats
from repro.network import Adapter, Packet, SwitchFabric
from repro.sim import Environment


def build(n=2, seed=1, **overrides):
    env = Environment()
    params = MachineParams(**overrides)
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(seed))
    stats = [NodeStats() for _ in range(n)]
    adapters = [Adapter(env, params, fabric, i, stats[i]) for i in range(n)]
    return env, params, fabric, adapters, stats


def pkt(src, dst, payload=b"x" * 100, header=None, hbytes=30):
    return Packet(src=src, dst=dst, header=header or {"kind": "t"}, payload=payload,
                  header_bytes=hbytes)


def drain(adapter, n, timeout=1e9):
    """Process that collects n packets from an adapter by polling."""
    got = []

    def proc():
        while len(got) < n:
            p = adapter.poll()
            if p is not None:
                got.append(p)
            else:
                yield adapter.wait_rx()

    adapter.env.process(proc())
    return got


def test_single_packet_delivery():
    env, params, fabric, adapters, stats = build()
    got = drain(adapters[1], 1)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1, b"hello"))

    env.process(sender())
    env.run()
    assert len(got) == 1
    assert got[0].payload == b"hello"
    assert stats[0].packets_sent.value == 1
    assert stats[1].packets_received.value == 1
    assert fabric.delivered == 1


def test_delivery_takes_dma_wire_and_route_time():
    env, params, fabric, adapters, stats = build(route_jitter_us=0.0, route_skew_us=0.0)
    got = []

    def receiver():
        yield adapters[1].wait_rx()
        got.append(env.now)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1, b"z" * 970, hbytes=30))

    env.process(receiver())
    env.process(sender())
    env.run()
    wire = 1000 * params.wire_us_per_byte
    dma = params.dma_cost(1000)
    expected = dma + wire + params.route_base_us + dma  # tx dma, wire, fabric, rx dma
    assert got[0] == pytest.approx(expected, rel=0.01)


def test_round_robin_routes():
    env, params, fabric, adapters, stats = build(route_count=4)
    routes = [fabric.pick_route(0, 1) for _ in range(6)]
    assert routes == [0, 1, 2, 3, 0, 1]
    # independent flow has its own rotation
    assert fabric.pick_route(1, 0) == 0


def test_out_of_order_delivery_with_large_skew():
    """With skew much larger than serialisation gap, route r=1 packet
    overtakes nothing but r=0 of the NEXT cycle overtakes r=3."""
    env, params, fabric, adapters, stats = build(
        route_skew_us=200.0, route_jitter_us=0.0, packet_payload=1024
    )
    got = []

    def receiver():
        while len(got) < 6:
            p = adapters[1].poll()
            if p is not None:
                got.append(p.header["seq"])
            else:
                yield adapters[1].wait_rx()

    def sender():
        for i in range(6):
            yield adapters[0].enqueue_send(
                pkt(0, 1, b"d" * 64, header={"kind": "t", "seq": i})
            )

    env.process(receiver())
    env.process(sender())
    env.run()
    assert sorted(got) == list(range(6))
    assert got != sorted(got), "expected out-of-order arrival with huge skew"


def test_packet_loss_injection():
    env, params, fabric, adapters, stats = build(packet_loss_rate=0.5, seed=42)

    def sender():
        for i in range(200):
            yield adapters[0].enqueue_send(pkt(0, 1, b"a" * 10))

    env.process(sender())
    env.run()
    assert fabric.dropped > 30
    assert fabric.delivered > 30
    assert fabric.dropped + fabric.delivered == 200


def test_recv_fifo_overflow_drops():
    env, params, fabric, adapters, stats = build(adapter_recv_fifo=4)

    def sender():
        for i in range(20):
            yield adapters[0].enqueue_send(pkt(0, 1, b"a" * 10))

    env.process(sender())
    env.run()
    # nobody drains node 1, so only 4 packets fit
    assert stats[1].packets_received.value == 4
    assert stats[1].packets_dropped.value == 16


def test_send_to_unattached_node_raises():
    env, params, fabric, adapters, stats = build(n=2)
    bad = pkt(0, 99)
    with pytest.raises(KeyError):
        fabric.transmit(bad)


def test_wrong_source_rejected():
    env, params, fabric, adapters, stats = build()
    with pytest.raises(ValueError):
        adapters[0].enqueue_send(pkt(1, 0))


def test_interrupt_mode_fires_isr():
    env, params, fabric, adapters, stats = build(interrupt_latency_us=5.0)
    fired = []

    def isr(adapter):
        while True:
            p = adapter.poll()
            if p is None:
                break
            fired.append((env.now, p.payload))
        yield env.timeout(0)

    adapters[1].set_interrupt_handler(isr)
    adapters[1].set_interrupt_mode(True)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1, b"irq!"))

    env.process(sender())
    env.run()
    assert len(fired) == 1
    assert fired[0][1] == b"irq!"


def test_isr_retriggers_for_late_packets():
    env, params, fabric, adapters, stats = build(interrupt_latency_us=1.0)
    seen = []

    def isr(adapter):
        while True:
            p = adapter.poll()
            if p is None:
                break
            seen.append(p.header["seq"])
        yield env.timeout(0)

    adapters[1].set_interrupt_handler(isr)
    adapters[1].set_interrupt_mode(True)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1, b"1", header={"kind": "t", "seq": 0}))
        yield env.timeout(500.0)
        yield adapters[0].enqueue_send(pkt(0, 1, b"2", header={"kind": "t", "seq": 1}))

    env.process(sender())
    env.run()
    assert seen == [0, 1]


def test_wait_rx_fires_immediately_if_pending():
    env, params, fabric, adapters, stats = build()

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1))

    env.process(sender())
    env.run()
    assert adapters[1].rx_pending == 1
    fired = []

    def waiter():
        yield adapters[1].wait_rx()
        fired.append(env.now)

    env.process(waiter())
    env.run()
    assert fired == [env.now]


def test_on_dma_done_signals_buffer_reuse():
    env, params, fabric, adapters, stats = build(route_jitter_us=0.0)
    done_at = []

    def sender():
        ev = env.event()
        yield adapters[0].enqueue_send(pkt(0, 1, b"q" * 970, hbytes=30), on_dma_done=ev)
        yield ev
        done_at.append(env.now)

    env.process(sender())
    env.run()
    assert done_at[0] == pytest.approx(params.dma_cost(1000), rel=0.01)


def test_duplicate_attach_rejected():
    env = Environment()
    params = MachineParams()
    fabric = SwitchFabric(env, params)
    st = NodeStats()
    Adapter(env, params, fabric, 0, st)
    with pytest.raises(ValueError):
        Adapter(env, params, fabric, 0, st)


def test_bandwidth_is_wire_limited_for_back_to_back_packets():
    """With DMA faster than the wire, sustained throughput ~= link rate."""
    env, params, fabric, adapters, stats = build(
        route_jitter_us=0.0, route_skew_us=0.0, dma_bandwidth_MBps=400.0
    )
    n, payload = 64, 1024
    t_done = []

    def receiver():
        count = 0
        while count < n:
            p = adapters[1].poll()
            if p is not None:
                count += 1
            else:
                yield adapters[1].wait_rx()
        t_done.append(env.now)

    def sender():
        for i in range(n):
            yield adapters[0].enqueue_send(pkt(0, 1, b"b" * payload, hbytes=0))

    env.process(receiver())
    env.process(sender())
    env.run()
    total_bytes = n * payload
    mbps = total_bytes / t_done[0]
    assert mbps <= params.link_bandwidth_MBps + 1
    assert mbps > params.link_bandwidth_MBps * 0.8
