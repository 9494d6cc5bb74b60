"""The switch adapter (TB3/TBMX model).

The card is a fixed FCFS pipeline, so each stage is priced analytically
when a packet enters it (``busy_until`` occupancy, as in
:mod:`repro.network.staged`) rather than by one process per engine::

    HAL --enqueue_send()--> send FIFO --[DMA]--> 2-deep link queue
        --[wire]--> fabric.transmit()

    admit     = max(now, dma_start[k - adapter_send_fifo])
    dma_start = max(admit, dma_free);      dma_end  = dma_start + dma_cost
    accept    = max(dma_end, take[k - 2]); dma_free = accept
    take      = max(accept, wire_free);    wire_end = take + wire_cost

``on_dma_done`` fires at ``dma_end`` and the fabric hand-off at
``wire_end``, one pooled event each.  Receive path: ``_fabric_deliver()``
--[DMA]--> host receive FIFO (bounded; overflow drops), landing at
``max(now, rx_free) + dma_cost``.

Notification is *polled* (``poll()`` / ``wait_rx()``) or, with
``interrupt_mode`` on and an ISR registered, *interrupt-driven*: arrival
schedules the protocol-supplied ISR after ``interrupt_latency_us`` (the
native stack's has the paper's hysteresis dwell, LAPI's is a drain loop).

Payloads are snapshotted (``bytes``) when a packet is built, so the
simulation always delivers the data as it was at send time; the *timing*
of when the real hardware would have licensed buffer reuse is still
reported through ``on_dma_done`` for origin-counter semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.network.fabric import SwitchFabric
from repro.network.packet import Packet
from repro.sim import Environment, Event

__all__ = ["Adapter"]


class Adapter:
    """One node's switch adapter."""

    def __init__(self, env: Environment, params: MachineParams,
                 fabric: SwitchFabric, node_id: int, stats: NodeStats):
        self.env = env
        self.params = params
        self.fabric = fabric
        self.node_id = node_id
        self.stats = stats
        #: fault hook (:class:`repro.faults.FaultPoint`) for host-FIFO
        #: squeeze events; installed by the cluster, ``None`` otherwise
        self.faults = None

        # receive-FIFO occupancy high water: how close the node came to
        # the overflow drops the reliability layers must then repair
        self._g_rx_depth = stats.registry.gauge("adapter.rx_fifo_depth")

        # when each engine is next free; the DMA starts and link takes
        # that the send FIFO and the link queue wait on
        self._dma_free = self._wire_free = self._rx_free = env.now
        self._dma_starts: deque[float] = deque(maxlen=params.adapter_send_fifo)
        self._takes: deque[float] = deque(maxlen=2)
        self._host_rx: deque[Packet] = deque()
        self._rx_waiters: list[Event] = []

        #: interrupt-driven receive notification
        self.interrupt_mode: bool = False
        self._isr: Optional[Callable[["Adapter"], Generator]] = None
        self._isr_active = False

        fabric.attach(self)

    # ------------------------------------------------------------- send
    def enqueue_send(self, packet: Packet, on_dma_done: Optional[Event] = None) -> Event:
        """Queue a packet for transmission.

        Returns the (possibly blocking) FIFO-admission event; yield it to
        respect adapter back-pressure.  ``on_dma_done`` is succeeded when
        the payload has left host memory (origin-buffer reuse point).
        """
        if packet.src != self.node_id:
            raise ValueError(f"packet src {packet.src} != adapter node {self.node_id}")
        env, p = self.env, self.params
        now = env.now
        starts, takes = self._dma_starts, self._takes
        # a full send FIFO admits when the packet F ahead starts its DMA
        admit = max(now, starts[0]) if len(starts) == starts.maxlen else now
        dma_start = max(admit, self._dma_free)
        dma_end = dma_start + p.dma_cost(packet.wire_bytes)
        accept = max(dma_end, takes[0]) if len(takes) == 2 else dma_end
        take = max(accept, self._wire_free)
        self._wire_free = wire_end = take + p.wire_cost(packet.wire_bytes)
        self._dma_free = accept
        starts.append(dma_start)
        takes.append(take)
        if on_dma_done is not None:
            env.call_at(dma_end, self._dma_done, on_dma_done)
        env.call_at(wire_end, self._wire_done, packet)
        if admit > now:
            return env.auto_timeout_at(admit)
        return env.auto_event().succeed()

    @staticmethod
    def _dma_done(ev: Event) -> None:
        done = ev._value
        if not done.triggered:
            done.succeed()

    def _wire_done(self, ev: Event) -> None:
        packet = ev._value
        stats = self.stats
        packet.route = self.fabric.pick_route(packet.src, packet.dst)
        stats.packets_sent.incr()
        stats.bytes_on_wire.incr(packet.wire_bytes)
        if stats.tracer is not None:
            h = packet.header
            stats.trace("adapter", "pkt_tx", dst=packet.dst, route=packet.route,
                        kind=h.get("kind"), seq=h.get("seq"), bytes=packet.wire_bytes,
                        msg=h.get("msg"), fid=h.get("fid"), mid=h.get("mid"))
        self.fabric.transmit(packet)

    # ---------------------------------------------------------- receive
    def _fabric_deliver(self, packet: Packet) -> None:
        """Fabric hand-off: packet reached this adapter's SRAM."""
        env = self.env
        self._rx_free = rx_end = (max(env.now, self._rx_free)
                                  + self.params.dma_cost(packet.wire_bytes))
        env.call_at(rx_end, self._rx_landed, packet)

    def _rx_landed(self, ev: Event) -> None:
        """Receive DMA done: the packet lands in the host FIFO or drops."""
        packet = ev._value
        stats = self.stats
        cap = self.params.adapter_recv_fifo
        if self.faults is not None:  # a host-FIFO squeeze
            cap = self.faults.fifo_capacity(cap, self.env.now)
        if len(self._host_rx) >= cap:
            # Host FIFO overflow: the adapter drops; reliability
            # layers above recover via retransmission.
            stats.packets_dropped.incr()
            if stats.tracer is not None:
                stats.trace("adapter", "fifo_drop", src=packet.src,
                            seq=packet.header.get("seq"),
                            mid=packet.header.get("mid"))
            return
        self._host_rx.append(packet)
        self._g_rx_depth.set(len(self._host_rx))
        stats.packets_received.incr()
        if stats.tracer is not None:
            h = packet.header
            stats.trace("adapter", "pkt_rx", src=packet.src, kind=h.get("kind"),
                        seq=h.get("seq"), msg=h.get("msg"), fid=h.get("fid"),
                        mid=h.get("mid"))
        self._notify_rx()

    def _notify_rx(self) -> None:
        waiters, self._rx_waiters = self._rx_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()
        if self.interrupt_mode and self._isr is not None and not self._isr_active:
            self._isr_active = True
            self.env.call_later(self.params.interrupt_latency_us,
                                self._start_isr)

    def _start_isr(self, _ev: Event) -> None:
        self.env.process(self._isr_wrapper(), name=f"a{self.node_id}.isr")

    def _isr_wrapper(self) -> Generator:
        try:
            yield from self._isr(self)
        finally:
            self._isr_active = False
            if self._host_rx and self.interrupt_mode and self._isr is not None:
                # Packets landed after the ISR drained and exited.
                self._isr_active = True
                self.env.call_later(self.params.interrupt_latency_us,
                                    self._start_isr)

    # ----------------------------------------------------------- polling
    def poll(self) -> Optional[Packet]:
        """Non-blocking pop of the next received packet (no cost charged;
        the caller accounts its own poll cost)."""
        if self._host_rx:
            return self._host_rx.popleft()
        return None

    @property
    def rx_pending(self) -> int:
        return len(self._host_rx)

    def wait_rx(self) -> Event:
        """Event that fires when the next packet lands in the host FIFO.

        Fires immediately if packets are already pending.
        """
        ev = self.env.event()
        if self._host_rx:
            ev.succeed()
        else:
            self._rx_waiters.append(ev)
        return ev

    # ------------------------------------------------------- interrupts
    def set_interrupt_handler(
        self, isr: Optional[Callable[["Adapter"], Generator]]
    ) -> None:
        """Install the protocol's interrupt service routine."""
        self._isr = isr

    def set_interrupt_mode(self, enabled: bool) -> None:
        self.interrupt_mode = enabled
        if enabled and self._host_rx and self._isr is not None and not self._isr_active:
            self._isr_active = True
            self.env.call_later(self.params.interrupt_latency_us,
                                self._start_isr)
