"""The analytic adapter pipeline against a process-per-engine reference.

``ReferenceAdapter`` below is the card modelled the direct way: a send
DMA process fed by a bounded send FIFO (``Channel``), a link process fed
by a 2-deep link queue (``Channel``), and a receive DMA process fed by
the adapter SRAM (``Store``).  It is the specification the analytic
recurrences in :mod:`repro.network.adapter` must reproduce.  Both
models are driven through the same fabric by the same hypothesis-drawn
bursts (mixed sizes and gaps, send FIFOs of 1-4 packets so
back-pressure blocks, DMA faster and slower than the wire, two senders
converging on one receiver, a small receive FIFO so packets drop), and
every packet's admission, ``on_dma_done``, transmit, landing and drop
times must match exactly.
"""

from collections import deque

import numpy as np
import hypothesis
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import MachineParams, NodeStats
from repro.network import Adapter, Packet, SwitchFabric
from repro.sim import Channel, Environment, Store
from repro.trace import Tracer

RECEIVER = 2


class ReferenceAdapter:
    """The card as three engine processes linked by FIFOs."""

    def __init__(self, env, params, fabric, node_id, stats):
        self.env, self.params, self.fabric = env, params, fabric
        self.node_id, self.stats = node_id, stats
        self._send_fifo = Channel(env, params.adapter_send_fifo)
        self._link_q = Channel(env, 2)
        self._sram_rx = Store(env)
        self._host_rx = deque()
        fabric.attach(self)
        env.process(self._send_dma_engine())
        env.process(self._link_engine())
        env.process(self._recv_dma_engine())

    def enqueue_send(self, packet, on_dma_done=None):
        return self._send_fifo.put((packet, on_dma_done))

    def _send_dma_engine(self):
        while True:
            packet, on_dma_done = yield self._send_fifo.get()
            yield self.env.timeout(self.params.dma_cost(packet.wire_bytes))
            if on_dma_done is not None and not on_dma_done.triggered:
                on_dma_done.succeed()
            yield self._link_q.put(packet)

    def _link_engine(self):
        while True:
            packet = yield self._link_q.get()
            yield self.env.timeout(self.params.wire_cost(packet.wire_bytes))
            packet.route = self.fabric.pick_route(packet.src, packet.dst)
            self.stats.trace("adapter", "pkt_tx", seq=packet.header["seq"])
            self.fabric.transmit(packet)

    def _fabric_deliver(self, packet):
        self._sram_rx.put(packet)

    def _recv_dma_engine(self):
        while True:
            packet = yield self._sram_rx.get()
            yield self.env.timeout(self.params.dma_cost(packet.wire_bytes))
            if len(self._host_rx) >= self.params.adapter_recv_fifo:
                self.stats.trace("adapter", "fifo_drop", src=packet.src,
                                 seq=packet.header["seq"])
                continue
            self._host_rx.append(packet)
            self.stats.trace("adapter", "pkt_rx", src=packet.src,
                             seq=packet.header["seq"])

    def poll(self):
        return self._host_rx.popleft() if self._host_rx else None


def run_model(model, params, bursts, drain_us, seed):
    """Drive ``bursts[node] = [(gap_us, payload, dma_done), ...]`` from
    nodes 0 and 1 to the receiver, which polls one packet every
    ``drain_us``.  Returns ``{(what, node, seq): time}``."""
    env = Environment()
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(seed))
    tracer = Tracer(env)
    stats = [NodeStats() for _ in range(3)]
    adapters = [model(env, params, fabric, i, stats[i]) for i in range(3)]
    for i, s in enumerate(stats):
        s.node_id, s.tracer = i, tracer
    times = {}
    total = sum(len(b) for b in bursts)

    def sender(node):
        for seq, (gap, payload, dma_done) in enumerate(bursts[node]):
            yield env.timeout(gap)
            pkt = Packet(src=node, dst=RECEIVER, header={"seq": seq},
                         payload=b"p" * payload, header_bytes=30)
            done = None
            if dma_done:
                done = env.event()
                done.callbacks.append(
                    lambda _e, k=("dma", node, seq): times.setdefault(k, env.now))
            yield adapters[node].enqueue_send(pkt, done)
            times["admit", node, seq] = env.now

    def drain():
        while sum(1 for r in tracer.records
                  if r.event in ("pkt_rx", "fifo_drop")) < total:
            yield env.timeout(drain_us)
            adapters[RECEIVER].poll()

    for node in (0, 1):
        env.process(sender(node))
    env.process(drain())
    env.run()
    for r in tracer.records:
        src = r.node if r.event == "pkt_tx" else r.fields["src"]
        times[r.event, src, r.fields["seq"]] = r.time
    return times


def split(times):
    """(send side, receive side) of a run's per-packet times."""
    rx = {k: t for k, t in times.items() if k[0] in ("pkt_rx", "fifo_drop")}
    return {k: t for k, t in times.items() if k not in rx}, rx


def simultaneous_handoffs(times) -> bool:
    tx = [t for k, t in times.items() if k[0] == "pkt_tx"]
    return len(set(tx)) < len(tx)


burst = st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.25, 4.0, 9.3, 40.0]),
                        st.floats(0.0, 50.0)),
              st.sampled_from([0, 1, 64, 200, 512, 994, 1024]),
              st.booleans()),
    min_size=0, max_size=14)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bursts=st.tuples(burst, burst),
       send_fifo=st.integers(1, 4),
       recv_fifo=st.integers(1, 4),
       dma_MBps=st.sampled_from([40.0, 110.0, 150.0, 600.0]),
       drain_us=st.sampled_from([0.25, 3.0, 12.0]),
       seed=st.integers(0, 3))
def test_analytic_pipeline_matches_reference(bursts, send_fifo, recv_fifo,
                                             dma_MBps, drain_us, seed):
    params = MachineParams(adapter_send_fifo=send_fifo,
                           adapter_recv_fifo=recv_fifo,
                           dma_bandwidth_MBps=dma_MBps)
    ref_send, ref_rx = split(run_model(ReferenceAdapter, params, bursts,
                                       drain_us, seed))
    send, rx = split(run_model(Adapter, params, bursts, drain_us, seed))
    assert send == ref_send
    # every packet lands or drops, once
    assert sorted(k[1:] for k in rx) == sorted(k[1:] for k in ref_send
                                               if k[0] == "pkt_tx")
    if simultaneous_handoffs(ref_send):
        # The two senders hand packets to the fabric at the same instant;
        # which goes first (and so takes which jitter draw, and which
        # reaches the receive DMA first) is a tie-break: the engine model
        # orders them by when their wire time started, the analytic one
        # by when they were enqueued.  See test_simultaneous_handoffs_*.
        hypothesis.event("simultaneous hand-offs")
    else:
        assert rx == ref_rx


def test_backpressure_and_drops_are_exercised():
    """The scenario space reaches the cases the pipeline must get right."""
    params = MachineParams(adapter_send_fifo=1, adapter_recv_fifo=1,
                           dma_bandwidth_MBps=600.0)
    bursts = ([(0.0, 1024, True)] * 6, [(0.0, 512, False)] * 6)
    times = run_model(Adapter, params, bursts, 12.0, 0)
    assert times == run_model(ReferenceAdapter, params, bursts, 12.0, 0)
    assert times["admit", 0, 3] > times["admit", 0, 2] > 0.0  # blocked
    assert any(k[0] == "fifo_drop" for k in times)


def test_simultaneous_handoffs_go_to_the_fabric_in_enqueue_order():
    """Node 1 enqueues its second packet first (at 0 us, node 0 at
    0.5 us), both wire times start at the same instant and end at the
    same instant.  Without jitter both packets then reach the receiver
    together and land in hand-off order: node 0's first in the engine
    model, node 1's (enqueued first) in the analytic pipeline."""
    params = MachineParams(adapter_send_fifo=1, dma_bandwidth_MBps=40.0,
                           route_jitter_us=0.0)
    bursts = ([(0.0, 0, False), (0.5, 0, False)],
              [(0.0, 0, False), (0.0, 0, False)])
    ref = run_model(ReferenceAdapter, params, bursts, 0.25, 0)
    got = run_model(Adapter, params, bursts, 0.25, 0)
    assert split(got)[0] == split(ref)[0]
    assert got["pkt_tx", 0, 1] == got["pkt_tx", 1, 1]
    assert ref["pkt_rx", 0, 1] < ref["pkt_rx", 1, 1]
    assert got["pkt_rx", 1, 1] == ref["pkt_rx", 0, 1]
    assert got["pkt_rx", 0, 1] == ref["pkt_rx", 1, 1]
