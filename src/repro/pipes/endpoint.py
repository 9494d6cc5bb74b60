"""The per-node Pipes endpoint: flows, windows, acks, in-order delivery."""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.hal import Hal, fragment
from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.sim import AnyOf, Environment, Event
from repro.transport import ReceiverLedger, SenderWindow

__all__ = ["PipeEndpoint"]

#: packet kinds on a pipe
_DATA = "pipe"
_ACK = "pipe_ack"


class _FlowTx:
    """Sender-side state for one destination."""

    __slots__ = ("window", "waiters", "last_progress", "rto_alive", "unsent_acked")

    def __init__(self, window_pkts: int):
        self.window = SenderWindow(window_pkts)
        self.waiters: list[Event] = []
        self.last_progress = 0.0
        self.rto_alive = False


class _FlowRx:
    """Receiver-side state for one source."""

    __slots__ = ("ledger", "stash", "next_deliver", "since_ack", "ack_timer_alive")

    def __init__(self):
        self.ledger = ReceiverLedger()
        self.stash: dict[int, tuple[dict, bytes]] = {}
        self.next_deliver = 0
        self.since_ack = 0
        self.ack_timer_alive = False


class PipeEndpoint:
    """Reliable, ordered packet stream to every peer.

    ``on_packet`` must be a generator function
    ``(thread, src, header, payload) -> Generator`` installed by the
    layer above (native MPCI); it is invoked for each packet **in stream
    order**.
    """

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        hal: Hal,
        params: MachineParams,
        stats: NodeStats,
    ):
        self.env = env
        self.cpu = cpu
        self.hal = hal
        self.params = params
        self.stats = stats
        self._tx: dict[int, _FlowTx] = {}
        self._rx: dict[int, _FlowRx] = {}
        self.on_packet: Optional[Callable[..., Generator]] = None
        # dispatch serialization: see :meth:`dispatch`
        self._dispatching = False
        self._dispatch_waiters: list[Event] = []
        #: fault hook (:class:`repro.faults.FaultPoint`) for dispatcher
        #: stalls; installed by the cluster, ``None`` otherwise
        self.faults = None
        # observability: the staging/reorder copies are what the paper's
        # Fig 11/12 argument charges the native stack for
        self.metrics = stats.registry
        self._m_frames = self.metrics.counter("pipes.frames_sent")
        self._m_staged = self.metrics.counter("pipes.bytes_staged")
        self._m_reordered = self.metrics.counter("pipes.bytes_reordered")
        self._g_inflight = self.metrics.gauge("pipes.pkts_in_flight")

    # ------------------------------------------------------------------
    def _flow_tx(self, dst: int) -> _FlowTx:
        flow = self._tx.get(dst)
        if flow is None:
            flow = self._tx[dst] = _FlowTx(self.params.pipe_window_pkts)
        return flow

    def _flow_rx(self, src: int) -> _FlowRx:
        flow = self._rx.get(src)
        if flow is None:
            flow = self._rx[src] = _FlowRx()
        return flow

    # ----------------------------------------------------------- sending
    def send_frame(
        self,
        thread: str,
        dst: int,
        meta: dict[str, Any],
        data: bytes,
        buffered_prefix: int = 0,
        buffered_suffix: int = 0,
        on_payload_out: Optional[Event] = None,
        fid: Optional[int] = None,
        mid: Optional[str] = None,
    ) -> Generator:
        """Send one MPCI frame over the stream to ``dst``.

        ``meta`` rides the first packet.  Bytes inside the buffered
        prefix/suffix are charged the pipe-buffer→HAL copy (the native
        stack's second send-side copy); bytes outside go direct (DMA from
        the user buffer).  ``on_payload_out`` fires when the last
        packet's payload has left host memory.  ``mid`` is the MPCI
        message id the frame belongs to; it rides every packet header
        and trace record so cross-node captures correlate.

        Returns after the final packet is admitted to the adapter (the
        frame may still be in flight / unacknowledged).
        """
        if dst == self.hal.node_id:
            raise ValueError("pipes do not loop back to self")
        flow = self._flow_tx(dst)
        size = len(data)
        self._m_frames.incr()
        self.stats.trace("pipes", "frame_send", fid=fid, dst=dst, bytes=size,
                         sid=meta.get("sid"), t=meta.get("t"), mid=mid,
                         thr=thread)
        chunks = fragment(size, self.params.packet_payload)
        last_idx = len(chunks) - 1
        # Zero-copy packetization: multi-packet frames slice a read-only
        # view of the caller's immutable snapshot (valid for retransmits
        # and reorder stashes); a single-packet frame is the snapshot
        # itself.
        view = memoryview(data) if last_idx > 0 else None
        for idx, (off, ln) in enumerate(chunks):
            while not flow.window.can_send:
                # Make progress while stalled: acks (and data) may be
                # sitting in our own adapter FIFO — polling-mode MPI
                # advances the protocol from inside blocking calls.
                yield from self.dispatch(thread)
                if flow.window.can_send:
                    break
                # Wait on the window as well as the FIFO: a concurrent
                # dispatcher (MPCI poller, ISR) may pop the ack before we
                # wake, in which case no further rx ever arrives here.
                waiter = self.env.event()
                flow.waiters.append(waiter)
                yield AnyOf(self.env, [waiter, self.wait_rx()])
            payload = data if view is None else view[off : off + ln]
            buffered = off < buffered_prefix or (off + ln) > size - buffered_suffix
            header: dict[str, Any] = {
                "kind": _DATA,
                "seq": None,  # assigned below
                "fid": fid,
                "mid": mid,
                "foff": off,
                "flen": size,
                "buffered": buffered,
            }
            if idx == 0:
                header["meta"] = meta
            seq = flow.window.send((header, payload))
            self._g_inflight.add(1)
            header["seq"] = seq
            # per-packet Pipes protocol work
            yield from self.cpu.execute(thread, self.params.pipe_pkt_us)
            if buffered and ln > 0:
                # staging copy pipe buffer -> HAL network buffer
                self._m_staged.incr(ln)
                yield from self.cpu.memcpy(thread, ln)
            yield from self.hal.send(
                thread,
                dst,
                header,
                payload,
                on_dma_done=on_payload_out if idx == last_idx else None,
            )
            flow.last_progress = self.env.now
            self._ensure_rto(dst, flow)

    def _ensure_rto(self, dst: int, flow: _FlowTx) -> None:
        if flow.rto_alive:
            return
        flow.rto_alive = True
        self.env.process(self._rto_loop(dst, flow), name=f"pipe.rto->{dst}")

    def _rto_loop(self, dst: int, flow: _FlowTx) -> Generator:
        rto = self.params.pipe_rto_us
        try:
            while flow.window.in_flight:
                yield self.env.timeout(rto)
                if not flow.window.in_flight:
                    break
                # Check our own FIFO first: the ack may already be here.
                yield from self.dispatch("user")
                if not flow.window.in_flight:
                    break
                if self.env.now - flow.last_progress < rto:
                    continue
                oldest = flow.window.oldest_unacked()
                if oldest is None:
                    break
                _seq, (header, payload) = oldest
                self.stats.retransmissions.incr()
                yield from self.cpu.execute("user", self.params.pipe_pkt_us)
                yield from self.hal.send("user", dst, header, payload)
                flow.last_progress = self.env.now
                rto = min(rto * 2, self.params.pipe_rto_us * 16)
        finally:
            flow.rto_alive = False

    # ---------------------------------------------------------- receiving
    def dispatch(self, thread: str) -> Generator:
        """Drain the adapter and process every pending packet.

        Unlike the LAPI dispatcher, packet processing here is **not**
        re-entrant: the frame machinery installed via ``on_packet``
        keeps per-frame state across yield points, so two contexts
        draining concurrently would interleave a frame's continuation
        ahead of its registration.  A second caller therefore parks
        until the active drain finishes, then returns (any packets that
        arrived meanwhile were consumed by the active drain's loop, or
        will wake the caller's own wait loop again).
        """
        if self.faults is not None:
            stall = self.faults.stall_us(self.env.now)
            if stall > 0.0:
                yield from self.cpu.execute(thread, stall)
        if self._dispatching:
            ev = self.env.event()
            self._dispatch_waiters.append(ev)
            yield ev
            return
        self._dispatching = True
        try:
            while True:
                pkt = self.hal.poll()
                if pkt is None:
                    return
                yield from self.hal.charge_recv(thread)
                kind = pkt.header.get("kind")
                if kind == _ACK:
                    self._handle_ack(pkt.src, pkt.header["cum"])
                elif kind == _DATA:
                    yield from self._handle_data(
                        thread, pkt.src, pkt.header, pkt.payload)
                else:
                    raise RuntimeError(
                        f"pipe endpoint got foreign packet kind {kind!r}")
        finally:
            self._dispatching = False
            waiters, self._dispatch_waiters = self._dispatch_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def _handle_ack(self, src: int, cum: int) -> None:
        flow = self._flow_tx(src)
        freed = flow.window.on_ack(cum)
        if freed:
            self._g_inflight.add(-freed)
            flow.last_progress = self.env.now
            waiters, flow.waiters = flow.waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def _handle_data(
        self, thread: str, src: int, header: dict[str, Any], payload: bytes
    ) -> Generator:
        flow = self._flow_rx(src)
        yield from self.cpu.execute(thread, self.params.pipe_pkt_us)
        verdict = flow.ledger.accept(header["seq"])
        if verdict == "dup":
            # duplicate: re-ack immediately so the sender stops resending
            yield from self._send_ack(thread, src, flow)
            return
        flow.since_ack += 1
        if header.get("buffered") and payload:
            # reordering copy HAL buffer -> pipe buffer
            self._m_reordered.incr(len(payload))
            yield from self.cpu.memcpy(thread, len(payload))
        flow.stash[header["seq"]] = (header, payload)
        # release the in-order prefix to MPCI
        while flow.next_deliver in flow.stash:
            hdr, data = flow.stash.pop(flow.next_deliver)
            flow.next_deliver += 1
            if self.on_packet is None:
                raise RuntimeError("PipeEndpoint.on_packet not installed")
            yield from self.on_packet(thread, src, hdr, data)
        if flow.since_ack >= self.params.pipe_ack_every:
            yield from self._send_ack(thread, src, flow)
        elif flow.since_ack > 0 and not flow.ack_timer_alive:
            flow.ack_timer_alive = True
            self.env.process(self._delayed_ack(src, flow), name=f"pipe.dack<-{src}")

    def _delayed_ack(self, src: int, flow: _FlowRx) -> Generator:
        """Flush a pending cumulative ack after the delayed-ack interval."""
        try:
            yield self.env.timeout(self.params.pipe_ack_delay_us)
            if flow.since_ack > 0:
                yield from self._send_ack("user", src, flow)
        finally:
            flow.ack_timer_alive = False

    def _send_ack(self, thread: str, src: int, flow: _FlowRx) -> Generator:
        flow.since_ack = 0
        self.stats.acks_sent.incr()
        yield from self.hal.send(
            thread, src, {"kind": _ACK, "cum": flow.ledger.cum_ack}, b""
        )

    # ------------------------------------------------------------------
    def wait_rx(self) -> Event:
        return self.hal.wait_rx()

    @property
    def rx_pending(self) -> int:
        return self.hal.rx_pending
