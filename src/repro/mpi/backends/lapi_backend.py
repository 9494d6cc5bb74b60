"""MPI-LAPI: the paper's new stack (Figs. 3–9) in its three generations.

Variant semantics (paper §4–5):

``base``
    Every message completion — marking a receive complete, acknowledging
    a request-to-send, launching rendezvous data after the ack — runs in
    a LAPI *completion handler* on its separate thread, paying a context
    switch each way.

``counters``
    Eager-protocol data completions are signalled through LAPI *target
    counters* whose addresses were exchanged at initialisation; the
    dispatcher increments them in-context, so no thread switch.  The
    rendezvous control steps still need completion handlers (receiving a
    request-to-send does not mean the data may be sent, §5.2).

``enhanced``
    LAPI is extended to run predefined completion handlers in the
    dispatcher's own context (§5.3); nothing pays the thread switch.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.lapi import Lapi
from repro.lapi.buffers import ByteTarget, NullTarget
from repro.lapi.counters import Counter
from repro.mpi.backends.base import Backend, InMsg, PendingSend
from repro.sim import Event, Store

__all__ = ["LapiBackend", "VARIANTS"]

VARIANTS = ("base", "counters", "enhanced")


class _Slot:
    """One completion-counter pool slot (Counters variant)."""

    __slots__ = ("backend", "cid", "cntr", "fifo", "_busy")

    def __init__(self, backend: "LapiBackend", cid: int, cntr: Counter):
        self.backend = backend
        self.cid = cid
        self.cntr = cntr
        self.fifo: deque[InMsg] = deque()
        self._busy = False
        cntr.subscribe(self._on_change)

    def bind(self, msg: InMsg) -> None:
        self.fifo.append(msg)
        self._drain()

    def _on_change(self, _cntr: Counter) -> None:
        self._drain()

    def _drain(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            while self.cntr.value > 0 and self.fifo:
                self.cntr.sub(1)
                self.backend._on_data_complete(self.fifo.popleft())
        finally:
            self._busy = False


class LapiBackend(Backend):
    """MPCI-thin over LAPI (paper Fig. 1c)."""

    def __init__(self, env, cpu, params, stats, task_id, num_tasks,
                 lapi: Lapi, variant: str = "enhanced"):
        super().__init__(env, cpu, params, stats, task_id, num_tasks)
        if variant not in VARIANTS:
            raise ValueError(f"unknown MPI-LAPI variant {variant!r}")
        if variant == "enhanced" and not lapi.enhanced:
            raise ValueError("enhanced variant requires an enhanced LAPI")
        if variant != "enhanced" and lapi.enhanced:
            raise ValueError(f"{variant} variant must run on stock LAPI")
        self.lapi = lapi
        self.variant = variant
        self.name = f"lapi-{variant}"

        # matching-order state (announcements processed in per-source
        # send order so MPI's non-overtaking rule survives packet races)
        self._expected: dict[int, int] = {}
        self._pending_ann: dict[int, dict[int, InMsg]] = {}

        # Counters variant: per-source completion-counter pools
        self._pools: dict[int, list[_Slot]] = {}
        self._slot_by_id: dict[int, _Slot] = {}
        if variant == "counters":
            for src in range(num_tasks):
                if src == task_id:
                    continue
                slots = []
                for k in range(params.counter_pool_slots):
                    cid, cntr = lapi.create_counter(f"pool[{src}][{k}]")
                    slot = _Slot(self, cid, cntr)
                    self._slot_by_id[cid] = slot
                    slots.append(slot)
                self._pools[src] = slots
        #: sender-side view of each peer's pool counter ids (filled by wire())
        self._peer_slot_ids: dict[int, list[int]] = {}

        self._ctrlq = Store(env, name=f"be{task_id}.ctrl")
        env.process(self._ctrl_engine(), name=f"be{task_id}.ctrl")

        lapi.register_handler("mpi_eager", self._hh_eager)
        lapi.register_handler("mpi_rts", self._hh_rts)
        lapi.register_handler("mpi_rts_ack", self._hh_rts_ack)
        lapi.register_handler("mpi_rdata", self._hh_rdata)
        lapi.register_handler("mpi_bfree", self._hh_bfree)

    # ------------------------------------------------------------ wiring
    def wire(self, peers: dict[int, "LapiBackend"]) -> None:
        """Exchange counter-pool addresses (paper §5.2: done at init)."""
        if self.variant != "counters":
            return
        for dst, peer in peers.items():
            if dst == self.task_id:
                continue
            self._peer_slot_ids[dst] = [s.cid for s in peer._pools[self.task_id]]

    # ---------------------------------------------------------- plumbing
    def progress(self, thread: str) -> Generator:
        return (yield from self.lapi.dispatch(thread))

    def wait_rx(self) -> Event:
        return self.lapi.hal.wait_rx()

    def set_interrupt_mode(self, enabled: bool) -> None:
        self.lapi.senv("INTERRUPT_SET", enabled)

    def make_rma_engine(self):
        from repro.mpi.rma import LapiRmaEngine

        return LapiRmaEngine(self)

    def _ctrl_engine(self) -> Generator:
        """Sends control messages queued from synchronous contexts."""
        while True:
            dst, hh, uhdr = yield self._ctrlq.get()
            yield from self.lapi.amsend("user", dst, hh, uhdr,
                                        mid=uhdr.get("mid"))

    # ------------------------------------------------------------- sends
    def _send_eager(self, thread, dst_task, uhdr, data, req) -> Generator:
        tgt_cntr_id = None
        if self.variant == "counters":
            pool = self._peer_slot_ids[dst_task]
            tgt_cntr_id = pool[uhdr["mseq"] % len(pool)]
        org = Counter(self.env, "org")
        yield from self.lapi.amsend(
            thread, dst_task, "mpi_eager", uhdr, data,
            tgt_cntr_id=tgt_cntr_id, org_cntr=org, mid=uhdr["mid"],
        )
        size = len(data)
        if uhdr["bfree"]:
            req.complete(count=size)  # library owns the staged copy
        else:
            org.changed()._add_callback(
                lambda _e: req.complete(count=size) if not req.done else None
            )

    def _send_rts(self, thread, dst_task, uhdr, data, req, blocking) -> Generator:
        uhdr["blocking"] = blocking and not uhdr["bfree"]
        ps = PendingSend(data, dst_task, uhdr, req, uhdr["blocking"])
        self.pending_sends[uhdr["sid"]] = ps
        yield from self.lapi.amsend(thread, dst_task, "mpi_rts", uhdr,
                                    mid=uhdr["mid"])
        if uhdr["bfree"]:
            req.complete(count=len(data))
        if ps.blocking:
            # Fig 6: wait for the ack here, then push the data from
            # the user thread
            yield from self.wait_until(thread, lambda: ps.acked,
                                       lambda: self._ack_waiter(ps))
            yield from self._launch_rdata(thread, ps)

    def _ack_waiter(self, ps: PendingSend) -> Event:
        ps.waiter = self.env.event()
        return ps.waiter

    def _launch_rdata(self, thread: str, ps: PendingSend) -> Generator:
        """Second rendezvous phase: ship the message like an eager send."""
        sid = ps.uhdr["sid"]
        org = Counter(self.env, "org")
        yield from self.lapi.amsend(
            thread,
            ps.dst_task,
            "mpi_rdata",
            {"sid": sid, "slot": ps.recv_slot, "size": len(ps.data),
             "bfree": ps.uhdr["bfree"], "mid": ps.uhdr.get("mid")},
            ps.data,
            tgt_cntr_id=ps.recv_slot,
            org_cntr=org,
            mid=ps.uhdr.get("mid"),
        )
        req = ps.req
        if not req.done:
            n = len(ps.data)
            org.changed()._add_callback(
                lambda _e: req.complete(count=n) if not req.done else None
            )
        self.pending_sends.pop(sid, None)

    def _cmpl_launch_rdata(self, lapi: Lapi, thread: str, ps: PendingSend) -> Generator:
        """Fig 7: nonblocking rendezvous data launched from the completion
        handler of the rts-ack message."""
        yield from self._launch_rdata(thread, ps)

    # ----------------------------------------------------------- receives
    def _ack_rts(self, thread, msg: InMsg) -> Generator:
        yield from self.lapi.amsend(thread, msg.src_task, "mpi_rts_ack",
                                    self._rts_ack_hdr(msg), mid=msg.mid)

    def _rts_ack_hdr(self, msg: InMsg) -> dict:
        return {"sid": msg.sid, "slot": self._alloc_rdata_slot(msg),
                "mid": msg.mid}

    def _alloc_rdata_slot(self, msg: InMsg) -> Optional[int]:
        if self.variant != "counters":
            return None
        pool = self._pools[msg.src_task]
        return pool[msg.mseq % len(pool)].cid

    def _send_bfree(self, msg: InMsg) -> None:
        self._ctrlq.put((msg.src_task, "mpi_bfree",
                         {"sid": msg.sid, "mid": msg.mid}))

    # --------------------------------------------- matching (sync, in HH)
    def _announce(self, msg: InMsg) -> None:
        """Process message announcements in per-source send order.

        A first packet that raced ahead of its flow predecessors is
        *deferred*: its data goes to an EA buffer and its matching waits
        until the gap fills, preserving MPI's non-overtaking rule.
        """
        src = msg.src_task
        expected = self._expected.setdefault(src, 0)
        if msg.mseq != expected:
            self.stats.deferred_announcements.incr()
            self.stats.trace("mpci", "announce_deferred", mseq=msg.mseq,
                             expected=expected, mid=msg.mid)
            self._pending_ann.setdefault(src, {})[msg.mseq] = msg
            return
        self._match_now(msg, deferred=False)
        self._expected[src] = expected + 1
        pend = self._pending_ann.get(src)
        while pend:
            nxt = self._expected[src]
            nxt_msg = pend.pop(nxt, None)
            if nxt_msg is None:
                break
            self._match_now(nxt_msg, deferred=True)
            self._expected[src] = nxt + 1

    def _match_now(self, msg: InMsg, deferred: bool) -> None:
        """Match in the header handler: the cost is a dispatcher charge,
        so the lookup and the commit are one synchronous step.

        For a matched request-to-send: when matched directly inside its
        own header handler (``deferred=False``), the acknowledgement is
        the job of the completion handler the header handler installs
        (paper Fig 4c); a deferred match sends it via the control engine.
        """
        handle, inspected = self.posted.match(msg.envelope)
        self.lapi.add_dispatch_charge(self.match_cost(inspected)
                                      + self.params.mpi_lock_us)
        self._commit_arrival(msg, handle)
        if deferred and msg.proto == "rts" and msg.req is not None:
            self._ctrlq.put((msg.src_task, "mpi_rts_ack", self._rts_ack_hdr(msg)))

    # ------------------------------------------------------ completion
    def _cmpl_mark(self, lapi: Lapi, thread: str, msg: InMsg) -> Generator:
        """Base/Enhanced completion handler: mark the message complete
        (paper Fig 3c)."""
        self._on_data_complete(msg)
        yield self.env.timeout(0)

    def _cmpl_send_rts_ack(self, lapi: Lapi, thread: str, msg: InMsg) -> Generator:
        """Fig 4c: completion handler of a matched request-to-send."""
        return self._ack_rts(thread, msg)

    # ------------------------------------------------- header handlers
    def _hh_eager(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 3b: match; return the user buffer or an EA buffer."""
        msg = InMsg.from_header(src_task, uhdr)
        self._announce(msg)
        if msg.req is not None:
            target = ByteTarget(msg.req.ctx)
        else:
            msg.ea_buf = self._alloc_ea(msg.size)
            target = ByteTarget(msg.ea_buf)
        return target, self._completion_for(msg), msg

    def _completion_for(self, msg: InMsg):
        """Choose the completion mechanism for a data message."""
        if self.variant == "counters":
            # dispatcher will increment the slot counter in-context;
            # binding the message to the slot replaces the handler
            pool = self._pools[msg.src_task]
            pool[msg.mseq % len(pool)].bind(msg)
            return None
        return self._cmpl_mark

    def _hh_rts(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 4b: header handler of the request-to-send."""
        msg = InMsg.from_header(src_task, uhdr)
        self._announce(msg)
        if msg.req is not None:
            # matched immediately: the ack is the completion handler's
            # job (Fig 4c) — threaded in base/counters, inline in enhanced
            return NullTarget(), self._cmpl_send_rts_ack, msg
        return NullTarget(), None, None

    def _hh_rts_ack(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 7: request-to-send acknowledged."""
        ps = self.pending_sends.get(uhdr["sid"])
        if ps is None:
            return NullTarget(), None, None
        self.stats.trace("mpci", "rts_acked", sid=uhdr["sid"],
                         blocking=ps.blocking, mid=ps.uhdr.get("mid"))
        ps.recv_slot = uhdr.get("slot")
        if ps.blocking:
            ps.acked = True
            if ps.waiter is not None and not ps.waiter.triggered:
                ps.waiter.succeed()
            return NullTarget(), None, None
        return NullTarget(), self._cmpl_launch_rdata, ps

    def _hh_rdata(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Second-phase rendezvous data: receive straight into the bound
        user buffer (no matching needed)."""
        msg = self._claim_rdata(src_task, uhdr)
        target = ByteTarget(msg.req.ctx)
        if self.variant == "counters":
            self._slot_by_id[uhdr["slot"]].bind(msg)
            return target, None, msg
        return target, self._cmpl_mark, msg

    def _hh_bfree(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 8: receiver reports full receipt; free attached-buffer space."""
        self._release_attached(uhdr["sid"])
        return NullTarget(), None, None
