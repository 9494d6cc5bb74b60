"""Shared backend machinery: matching, early arrivals, buffered mode.

Receive matching is written once, here, for both stacks: ``irecv``, the
arrival commit (bind to a posted receive, or park in the early queue),
the early-arrival hand-off and the send prologue.  A concrete backend
adds the transport through small hooks: ``_send_eager``/``_send_rts``
put a message on the wire, ``_ack_rts`` acknowledges a matched
request-to-send, ``_send_bfree`` reports a buffered message received,
and its own arrival path charges the match cost and calls
``_commit_arrival``.

Terminology: the *task* is the transport endpoint (node id); *rank* is a
position within a communicator.  The backend speaks tasks for routing
and ranks for matching envelopes (an envelope's ``src`` is the sender's
rank in the message's communicator).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.mpci import EarlyArrivalQueue, Envelope, PostedReceiveQueue
from repro.mpi.protocol import BUFFERED, EAGER, READY, select_protocol
from repro.mpi.request import Request
from repro.sim import Environment, Event

__all__ = ["Backend", "InMsg", "MpiFatal", "PendingSend"]


class MpiFatal(RuntimeError):
    """Fatal MPI error (e.g. Ready-mode send with no posted receive —
    the paper's Fig. 3 raises a fatal error and terminates the job)."""


class InMsg:
    """Receiver-side state for one incoming point-to-point message."""

    __slots__ = (
        "envelope",
        "src_task",
        "mseq",
        "size",
        "proto",  # "eager" | "rts" | "rdata"
        "mode",
        "sid",
        "mid",
        "want_bfree",
        "ea_buf",
        "req",
        "assembled",
    )

    def __init__(self, envelope: Envelope, src_task: int, mseq: int, size: int,
                 proto: str, mode: str, sid: int, want_bfree: bool,
                 mid: Optional[str] = None):
        self.envelope = envelope
        self.src_task = src_task
        self.mseq = mseq
        self.size = size
        self.proto = proto
        self.mode = mode
        self.sid = sid
        self.mid = mid
        self.want_bfree = want_bfree
        self.ea_buf: Optional[bytearray] = None
        #: the receive this message completes (None while unclaimed)
        self.req: Optional[Request] = None
        self.assembled = False

    @classmethod
    def from_header(cls, src_task: int, hdr: dict[str, Any]) -> "InMsg":
        """The receive-side record of an eager or rts first packet."""
        return cls(Envelope(hdr["ctx"], hdr["srank"], hdr["tag"]), src_task,
                   hdr["mseq"], hdr["size"], hdr["t"], hdr["mode"], hdr["sid"],
                   hdr["bfree"], mid=hdr.get("mid"))


class PendingSend:
    """Origin-side state for one rendezvous send awaiting its ack."""

    __slots__ = ("data", "dst_task", "uhdr", "req", "blocking", "acked", "waiter",
                 "recv_slot")

    def __init__(self, data: bytes, dst_task: int, uhdr: dict, req: Request,
                 blocking: bool):
        self.data = data
        self.dst_task = dst_task
        self.uhdr = uhdr
        self.req = req
        self.blocking = blocking
        self.acked = False
        self.waiter: Optional[Event] = None
        self.recv_slot: Optional[int] = None


class Backend:
    """Common state + helpers; concrete backends add the transport."""

    name = "abstract"

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        params: MachineParams,
        stats: NodeStats,
        task_id: int,
        num_tasks: int,
    ):
        self.env = env
        self.cpu = cpu
        self.params = params
        self.stats = stats
        self.task_id = task_id
        self.num_tasks = num_tasks

        self.posted = PostedReceiveQueue()
        self.early = EarlyArrivalQueue()
        self._send_ids = itertools.count()
        self._mseq_next: dict[int, int] = {}  # per-destination send order
        self.pending_sends: dict[int, PendingSend] = {}
        #: (src_task, sid) -> recv Request bound to an incoming rdata
        self.bound_recvs: dict[tuple[int, int], Request] = {}

        # MPI_Buffer_attach accounting
        self._attach_capacity = 0
        self._attach_used = 0
        self._attach_waiters: list[Event] = []
        #: sid -> bytes to release when the bfree notification arrives
        self._attach_outstanding: dict[int, int] = {}

        # early-arrival buffer accounting
        self._ea_used = 0

        #: lazily-created MPI-3 RMA engine (repro.mpi.rma)
        self._rma_engine = None

        # observability: protocol-selection counters per Table-2 mode,
        # early-arrival occupancy high water, unexpected-queue depth
        self.metrics = stats.registry
        self._g_ea = self.metrics.gauge("mpi.ea_bytes")
        self._g_unexpected = self.metrics.gauge("mpi.unexpected_depth")

    # ------------------------------------------------------ buffered mode
    def attach_buffer(self, nbytes: int) -> None:
        """MPI_Buffer_attach."""
        if self._attach_capacity:
            raise MpiFatal("a buffer is already attached")
        if nbytes <= 0:
            raise ValueError("attach size must be positive")
        self._attach_capacity = nbytes
        self._attach_used = 0

    def detach_buffer(self) -> int:
        """MPI_Buffer_detach: returns the detached capacity."""
        cap = self._attach_capacity
        self._attach_capacity = 0
        self._attach_used = 0
        return cap

    def _reserve_attached(self, nbytes: int, sid: int) -> None:
        if nbytes > self._attach_capacity - self._attach_used:
            raise MpiFatal(
                f"buffered send of {nbytes}B exceeds attached buffer space "
                f"({self._attach_capacity - self._attach_used}B free)"
            )
        self._attach_used += nbytes
        self._attach_outstanding[sid] = nbytes

    def _release_attached(self, sid: int) -> None:
        nbytes = self._attach_outstanding.pop(sid, 0)
        self._attach_used -= nbytes
        waiters, self._attach_waiters = self._attach_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    # ------------------------------------------------------- EA buffers
    def _alloc_ea(self, size: int) -> bytearray:
        if self._ea_used + size > self.params.early_arrival_bytes:
            raise MpiFatal(
                f"early-arrival buffer exhausted ({self._ea_used + size}B > "
                f"{self.params.early_arrival_bytes}B); raise eager_limit "
                "discipline or early_arrival_bytes"
            )
        self._ea_used += size
        self._g_ea.set(self._ea_used)
        self.stats.early_arrivals.incr()
        return bytearray(size)

    def _free_ea(self, size: int) -> None:
        self._ea_used -= size
        self._g_ea.set(self._ea_used)

    def _track_unexpected(self) -> None:
        """Refresh the unexpected-queue depth gauge after a mutation."""
        self._g_unexpected.set(len(self.early))

    # ---------------------------------------------------------- helpers
    def next_mseq(self, dst_task: int) -> int:
        n = self._mseq_next.get(dst_task, 0)
        self._mseq_next[dst_task] = n + 1
        return n

    def next_sid(self) -> int:
        return next(self._send_ids)

    def mint_mid(self, sid: int) -> str:
        """Cluster-unique message id for the send with local id ``sid``.

        ``<origin task>:<origin send id>`` — unique across the whole
        cluster without coordination, stable across reruns, and carried
        by every packet header and trace record the message generates on
        either node (the causal key ``repro.obs.spans`` reconstructs
        span trees from).
        """
        return f"{self.task_id}:{sid}"

    def match_cost(self, inspected: int) -> float:
        p = self.params
        return p.match_base_us + inspected * p.match_per_entry_us

    def select_protocol(self, mode: str, size: int) -> str:
        proto = select_protocol(mode, size, self.params.eager_limit)
        self.metrics.counter(f"mpi.proto.{proto}.{mode}").incr()
        return proto

    # ------------------------------------------------------------- sends
    def isend(self, thread, data: bytes, dst_task: int, src_rank: int, tag: int,
              context: int, mode: str, blocking: bool = False) -> Generator:
        """MPI_Isend: the protocol-independent prologue, then the
        transport's eager or rendezvous hook."""
        p = self.params
        yield from self.cpu.execute(thread, p.mpi_call_us + p.mpi_lock_us)
        req = Request(self.env, "send")
        size = len(data)
        proto = self.select_protocol(mode, size)
        sid = self.next_sid()
        want_bfree = mode == BUFFERED
        hdr = {
            "ctx": context,
            "srank": src_rank,
            "tag": tag,
            "mseq": self.next_mseq(dst_task),
            "size": size,
            "mode": mode,
            "sid": sid,
            "mid": self.mint_mid(sid),
            "bfree": want_bfree,
        }
        if want_bfree:
            # Fig 8: copy the message into the user-attached buffer first
            self._reserve_attached(size, sid)
            yield from self.cpu.memcpy(thread, size)
        self.stats.msgs_sent.incr()
        if proto == EAGER:
            self.stats.eager_sends.incr()
            hdr["t"] = "eager"
            yield from self._send_eager(thread, dst_task, hdr, data, req)
        else:
            self.stats.rendezvous_started.incr()
            hdr["t"] = "rts"
            yield from self._send_rts(thread, dst_task, hdr, data, req, blocking)
        return req

    # ---------------------------------------------------------- receives
    def irecv(self, thread, view, src_pattern: int, tag_pattern: int,
              context: int) -> Generator:
        """MPI_Irecv: claim an early arrival or post the receive."""
        p = self.params
        yield from self.cpu.execute(thread, p.mpi_call_us + p.mpi_lock_us)
        req = Request(self.env, "recv")
        req.ctx = view
        entry, inspected = self.early.match(context, src_pattern, tag_pattern)
        self._track_unexpected()
        yield from self.cpu.execute(thread, self.match_cost(inspected))
        if entry is None:
            # a message may have entered the early queue while the match
            # cost was charged; the re-check and the post must not be
            # separated by a yield or the pair strands
            entry, _ = self.early.match(context, src_pattern, tag_pattern)
        if entry is None:
            self.posted.post(context, src_pattern, tag_pattern, req)
            self.stats.matches_posted.incr()
            return req

        _env, msg = entry
        self._check_fits(msg, view)
        if msg.proto == "rts":
            # Fig 9: acknowledge the request-to-send now that the receive
            # is posted
            self._bind_rts(msg, req)
            yield from self._ack_rts(thread, msg)
        elif msg.assembled:
            # message already sits complete in the early-arrival buffer
            yield from self._copy_ea_to_user(thread, msg, req)
        else:
            # data still arriving into the EA buffer; finalize on completion
            msg.req = req
        return req

    def _check_fits(self, msg: InMsg, view) -> None:
        if msg.size > len(view):
            raise MpiFatal(
                f"message of {msg.size}B truncates receive buffer of "
                f"{len(view)}B (tag {msg.envelope.tag})"
            )

    def _copy_ea_to_user(self, thread: str, msg: InMsg, req: Request) -> Generator:
        view = req.ctx
        # buffer-to-buffer move; a bare bytearray slice would materialise
        # a temporary copy first
        view[: msg.size] = memoryview(msg.ea_buf)[: msg.size]
        yield from self.cpu.memcpy(thread, msg.size)
        self._free_ea(msg.size)
        req.complete(source=msg.envelope.src, tag=msg.envelope.tag, count=msg.size)
        self.stats.msgs_received.incr()

    def _hand_off(self, msg: InMsg, req: Request) -> None:
        """Leave the EA-buffer → user copy to the thread that waits on
        ``req`` (where the real MPCI performs it)."""
        req.set_finalizer(lambda thread: self._copy_ea_to_user(thread, msg, req))

    def _bind_rts(self, msg: InMsg, req: Request) -> None:
        """Bind a request-to-send to its receive; the rendezvous data
        finds ``req`` through ``bound_recvs``."""
        msg.req = req
        self.bound_recvs[(msg.src_task, msg.sid)] = (req, msg.envelope)

    # ---------------------------------------------------------- arrivals
    def _commit_arrival(self, msg: InMsg, handle: Optional[Request]) -> None:
        """Bind an announced message to the posted receive ``handle``
        found for it, or park it in the early queue.

        Synchronous on purpose: the caller charges the match cost and
        re-checks the posted queue *before* this, so no yield separates
        the decision from the insertion.
        """
        if handle is not None:
            self.stats.trace("mpci", "matched_posted", proto=msg.proto,
                             tag=msg.envelope.tag, mseq=msg.mseq, mid=msg.mid)
            self._check_fits(msg, handle.ctx)
            if msg.proto == "rts":
                self._bind_rts(msg, handle)
                return
            msg.req = handle
            if msg.assembled:
                # a deferred message can finish assembling into its EA
                # buffer before the announcement gap fills; the completion
                # ran with no request bound, so finish the hand-off here
                self._hand_off(msg, handle)
        elif msg.mode == READY:
            # Fig 3: ready-mode message with no posted receive is fatal
            raise MpiFatal(
                f"ready-mode message (tag {msg.envelope.tag}) arrived with "
                "no matching receive posted"
            )
        else:
            self.stats.trace("mpci", "early_arrival", proto=msg.proto,
                             tag=msg.envelope.tag, mseq=msg.mseq, mid=msg.mid)
            self.early.add(msg.envelope, msg)
            self._track_unexpected()

    def _claim_rdata(self, src_task: int, hdr: dict[str, Any]) -> InMsg:
        """Second-phase rendezvous data: no matching, the receive was
        bound when its request-to-send matched."""
        bound = self.bound_recvs.pop((src_task, hdr["sid"]), None)
        if bound is None:
            raise MpiFatal(f"rendezvous data for unknown receive (sid {hdr['sid']})")
        req, envelope = bound
        msg = InMsg(envelope, src_task, -1, hdr["size"], "rdata", "standard",
                    hdr["sid"], hdr["bfree"], mid=hdr.get("mid"))
        msg.req = req
        return msg

    def _on_data_complete(self, msg: InMsg) -> None:
        """A data message (eager or rdata) is fully assembled (sync)."""
        msg.assembled = True
        req = msg.req
        if req is not None:
            if msg.ea_buf is None:
                req.complete(source=msg.envelope.src, tag=msg.envelope.tag,
                             count=msg.size)
                self.stats.msgs_received.incr()
            else:
                self._hand_off(msg, req)
        if msg.want_bfree:
            self._send_bfree(msg)

    # --------------------------------------------------- transport hooks
    def _send_eager(self, thread: str, dst_task: int, hdr: dict, data: bytes,
                    req: Request) -> Generator:
        raise NotImplementedError

    def _send_rts(self, thread: str, dst_task: int, hdr: dict, data: bytes,
                  req: Request, blocking: bool) -> Generator:
        raise NotImplementedError

    def _ack_rts(self, thread: str, msg: InMsg) -> Generator:
        """Tell the sender of a bound request-to-send to ship the data."""
        raise NotImplementedError

    def _send_bfree(self, msg: InMsg) -> None:
        """Tell the sender a buffered-mode message was fully received."""
        raise NotImplementedError

    def progress(self, thread: str) -> Generator:
        raise NotImplementedError

    def wait_rx(self) -> Event:
        raise NotImplementedError

    def set_interrupt_mode(self, enabled: bool) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------- RMA
    def ensure_rma_engine(self):
        """One RMA engine per backend instance, created on first
        ``win_create`` so two-sided-only runs never pay for it."""
        if self._rma_engine is None:
            self._rma_engine = self.make_rma_engine()
        return self._rma_engine

    def make_rma_engine(self):
        raise NotImplementedError

    # ------------------------------------------------------ wait loop
    def wait_until(self, thread: str, cond: Callable[[], bool],
                   wake: Callable[[], Event]) -> Generator:
        """Drive progress until ``cond()`` holds (polling discipline).

        ``wake()`` makes the event that fires when something other than
        packet arrival (such as a handler run in interrupt context) may
        have made ``cond()`` true.
        """
        while not cond():
            progressed = yield from self.progress(thread)
            if cond():
                break
            if progressed:
                continue
            self.stats.polls.incr()
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if cond():
                break
            yield self.env.any_of([self.wait_rx(), wake()])

    def wait(self, thread: str, req: Request) -> Generator:
        """Drive progress until ``req`` completes.  The per-message hot
        path, so :meth:`wait_until`'s loop is inlined here."""
        while True:
            if req.needs_finalize:
                yield from req.run_finalizer(thread)
            if req.done:
                return req.status
            progressed = yield from self.progress(thread)
            if req.done or req.needs_finalize:
                continue
            if progressed:
                continue
            self.stats.polls.incr()
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if req.done or req.needs_finalize:
                continue
            yield self.env.any_of([self.wait_rx(), req.changed()])

    def test(self, thread: str, req: Request) -> Generator:
        """Single progress pass; returns True if the request completed."""
        yield from self.progress(thread)
        if req.needs_finalize:
            yield from req.run_finalizer(thread)
        return req.done
