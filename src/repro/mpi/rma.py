"""MPI-3 one-sided (RMA) over the paper's transports.

The paper layers *two-sided* MPI on LAPI's one-sided primitives; this
module closes the loop and layers MPI-3 one-sided on them directly, the
mapping Gerstenberger et al. showed beats two-sided emulation when the
transport is natively one-sided:

==========================  =============================  =========================
MPI-3 call                  LAPI stacks                    native (Pipes) stack
==========================  =============================  =========================
``win_create``              ``LAPI_Address_init`` + cid    window server process
                            exchange (allgather)
``put``                     ``LAPI_Put``                   request/ack over send/recv
``get``                     ``LAPI_Get``                   request/data-reply
``accumulate``              Amsend + in-dispatcher apply   request/ack, server apply
``get_accumulate``          Amsend + apply, data reply     request/data-reply
``fetch_and_op`` / ``cas``  ``LAPI_Rmw``                   request/word-reply
``win_fence``               cumulative markers + target    waitall acks + barrier
                            *applied* counters
``post/start/complete/      counter-based tokens +         zero-byte token messages
wait``                      cumulative complete counts
``lock/unlock``             lock ledger serviced in        lock ledger in the window
                            dispatcher context             server
==========================  =============================  =========================

As in the paper's MPCI (§4), the MPI half of every call is written once
— in :class:`Window` and the :class:`RmaEngine` base: argument and epoch
checks, the self-target shortcut, metrics and trace, lock ids, the lock
ledger and grant routing, the self-rank PSCW tokens.  Each engine adds
only transport hooks (see :class:`RmaEngine`).

Sync-mode correctness rests on one invariant: every remote data-movement
op increments exactly one per-origin *applied* counter at the target
(``tgt_cntr_id`` for LAPI; the explicit ack for native), so an epoch can
close by comparing a cumulative issued count against a cumulative
applied count.  The LAPI marker fence lets an origin leave once it has
every peer's marker, before the target has applied the origin's own
ops, so each LAPI op also carries the count its origin had issued to
that target by its last fence (``tgt_cntr_floor``), and the target holds
the op until its applied counter reaches that count: no op overtakes an
earlier epoch's op from the same origin, whatever route either takes.

Passive target progress: all target-side work (applies, the lock
ledger) runs in dispatcher/completion context (``inline_always``
handlers) or in the window server process, so both polling *and*
interrupt modes make progress without the target calling MPI.
"""

from __future__ import annotations

import itertools
import json
import struct
from bisect import bisect_right
from collections import deque
from typing import Any, Generator, Optional, Sequence

import numpy as np

from repro.lapi.buffers import ByteTarget, NullTarget
from repro.lapi.counters import Counter
from repro.mpci import ANY_SOURCE
from repro.mpi.datatypes import as_bytes, as_writable
from repro.mpi.request import Request
from repro.sim import AnyOf

__all__ = [
    "LapiRmaEngine",
    "NativeRmaEngine",
    "RmaEngine",
    "RmaError",
    "Window",
    "WindowBuffer",
    "win_create",
]


class RmaError(RuntimeError):
    """Invalid use of the one-sided interface."""


_WORD_MASK = (1 << 64) - 1


class WindowBuffer(bytearray):
    """Window memory with an epoch-amortised read snapshot.

    ``rma_exposure_view`` hands the LAPI get-reply path a *read-only
    view* of a lazily-taken snapshot instead of a per-get copy; any
    write (direct slice assignment, an incoming put/accumulate via
    ``rma_epoch_dirty``) invalidates it, so during a read-only exposure
    epoch the snapshot is taken exactly once and every get of the epoch
    rides it zero-copy.  Writers that bypass ``__setitem__`` (the
    assembly paths write through ``memoryview``) must call
    ``rma_epoch_dirty`` first — the RMA engines and ``_hh_put`` do.
    """

    __slots__ = ("_snap",)

    def __init__(self, *args):
        super().__init__(*args)
        self._snap: Optional[bytes] = None

    def __setitem__(self, key, value):
        self._snap = None
        super().__setitem__(key, value)

    def rma_epoch_dirty(self) -> None:
        """Invalidate the epoch snapshot (a write is about to land)."""
        self._snap = None

    def rma_exposure_view(self, off: int, n: int) -> memoryview:
        """Read-only view over the current epoch snapshot."""
        if self._snap is None:
            self._snap = bytes(self)
        return memoryview(self._snap)[off : off + n]

    # 64-bit little-endian words for LAPI_Rmw at a byte offset
    def read_word(self, off: int) -> int:
        return int.from_bytes(bytes(self[off : off + 8]), "little", signed=True)

    def write_word(self, off: int, value: int) -> None:
        self[off : off + 8] = (value & _WORD_MASK).to_bytes(8, "little")


class _StridedTarget:
    """Scatter a packed wire image into non-contiguous window ranges.

    Chunks may arrive out of order (multi-route fabric), so ``write``
    locates the range containing each wire offset by bisection.
    """

    __slots__ = ("view", "ranges", "starts")

    def __init__(self, view: memoryview, base: int,
                 ranges: Sequence[Sequence[int]]):
        self.view = view
        self.ranges = [(base + int(off), int(ln)) for off, ln in ranges]
        starts = [0]
        for _off, ln in self.ranges:
            starts.append(starts[-1] + ln)
        self.starts = starts  # wire offset where each range begins

    def write(self, off: int, data) -> None:
        if not data:
            return
        i = bisect_right(self.starts, off) - 1
        pos, n = 0, len(data)
        while pos < n:
            roff, rln = self.ranges[i]
            skip = off + pos - self.starts[i]
            take = min(rln - skip, n - pos)
            self.view[roff + skip : roff + skip + take] = data[pos : pos + take]
            pos += take
            i += 1


class _LockLedger:
    """Shared/exclusive lock state at a window target.

    FIFO-fair: once anything queues, later requests queue behind it
    (no shared-reader starvation of a waiting writer).  ``release``
    returns the queue entries that become grantable.  An entry's
    ``origin_ref`` is ``None`` for a waiter on the target itself, else
    the engine's address for the remote grant.
    """

    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: dict[str, bool] = {}  # lid -> exclusive?
        self.queue: deque = deque()  # (lid, exclusive, origin_ref)

    def try_acquire(self, lid: str, exclusive: bool) -> bool:
        if self.queue:
            return False
        if exclusive:
            ok = not self.holders
        else:
            ok = not any(self.holders.values())
        if ok:
            self.holders[lid] = exclusive
        return ok

    def enqueue(self, lid: str, exclusive: bool, origin_ref) -> None:
        self.queue.append((lid, exclusive, origin_ref))

    def release(self, lid: str) -> list:
        del self.holders[lid]
        granted = []
        while self.queue:
            lid2, excl2, ref2 = self.queue[0]
            if excl2:
                if self.holders:
                    break
                self.holders[lid2] = True
                granted.append(self.queue.popleft())
                break
            if any(self.holders.values()):
                break
            self.holders[lid2] = False
            granted.append(self.queue.popleft())
        return granted


#: numpy ufuncs for the element-wise accumulate ops
_ACC_UFUNCS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}

ACC_OPS = tuple(_ACC_UFUNCS) + ("replace", "no_op")

#: fetch_and_op -> LAPI_Rmw op (scalar ops ride the rmw fast path)
_RMW_OF = {"sum": "FETCH_AND_ADD", "bor": "FETCH_AND_OR", "replace": "SWAP",
           "no_op": "FETCH_AND_ADD"}


def _apply_acc(mem: WindowBuffer, off: int, data, op: str, dtype: str) -> None:
    """Element-wise accumulate into window memory (runs synchronously in
    dispatcher/server context — that synchrony is the atomicity).  ``op``
    was validated at the origin."""
    if op == "no_op":
        return
    mem.rma_epoch_dirty()
    view = memoryview(mem)[off : off + len(data)]
    if op == "replace":
        view[:] = data
        return
    dst = np.frombuffer(view, dtype=dtype)
    src = np.frombuffer(data if isinstance(data, (bytes, bytearray)) else bytes(data),
                        dtype=dtype)
    _ACC_UFUNCS[op](dst, src, out=dst)


def _acc_dtype(buf, dtype: Optional[str]) -> str:
    if dtype is not None:
        return dtype
    if isinstance(buf, np.ndarray):
        return buf.dtype.str
    return "|u1"


def _gather(mem, base: int, ranges) -> bytes:
    """Pack strided window ranges into one wire image."""
    view = memoryview(mem)
    return b"".join(bytes(view[base + off : base + off + ln])
                    for off, ln in ranges)


def _local_put(cpu, win: "Window", disp: int, data,
               ranges=None) -> Generator:
    """Put into a window in the calling context (the caller's own, or
    the native server's): a plain copy, strided over ``ranges``."""
    win.mem.rma_epoch_dirty()
    if ranges is None:
        memoryview(win.mem)[disp : disp + len(data)] = data
    else:
        _StridedTarget(memoryview(win.mem), disp, ranges).write(0, data)
    yield from cpu.memcpy("user", len(data))


def _local_get(cpu, win: "Window", buf, disp: int, n: int, datatype,
               count: int) -> Generator:
    """Get from the caller's own window."""
    if datatype is None:
        as_writable(buf)[:n] = memoryview(win.mem)[disp : disp + n]
    else:
        datatype.unpack(_gather(win.mem, disp, datatype._flat_ranges(count)),
                        buf, count)
    yield from cpu.memcpy("user", n)


def _local_acc(cpu, thread: str, mem: WindowBuffer, disp: int, data, op: str,
               dt: str, result=None) -> Generator:
    """Accumulate into window memory in the calling context; with
    ``result``, fetch the old contents into it first."""
    if result is None:
        _apply_acc(mem, disp, data, op, dt)
        yield from cpu.memcpy(thread, len(data))
        return
    old = bytes(memoryview(mem)[disp : disp + len(data)])
    _apply_acc(mem, disp, data, op, dt)
    as_writable(result)[: len(old)] = old
    yield from cpu.memcpy(thread, 2 * len(data))


def _rmw_word(op: str, old: int, value: int, compare: Optional[int]) -> int:
    if op == "sum":
        return old + value
    if op == "bor":
        return old | value
    if op == "replace":
        return value
    if op == "no_op":
        return old
    if op == "cas":
        return value if old == compare else old
    raise RmaError(f"unknown rmw op {op!r}")


def _local_rmw(win: "Window", op: str, value: int, compare: Optional[int],
               disp: int) -> int:
    """Word read-modify-write on the caller's own window; runs atomically
    in the caller's context.  Returns the prior value."""
    old = win.mem.read_word(disp)
    win.mem.write_word(disp, _rmw_word(op, old, value, compare))
    return old


def _check_acc_op(op: str) -> None:
    if op not in ACC_OPS:
        raise RmaError(f"unknown accumulate op {op!r}")


class Window(object):
    """An MPI-3 window: registered memory plus MPI epoch state.

    Created collectively by :func:`win_create`; all methods are
    generators (``yield from win.put(...)``) except the plain accessors.
    Each call does its MPI half here — checks, the self-target shortcut,
    metrics and trace — and hands the remote part to the engine's
    transport hooks: thin and zero-copy on the LAPI stacks, emulated
    over two-sided send/recv on the native stack.
    """

    def __init__(self, engine, comm, mem: WindowBuffer, name: str):
        self._engine = engine
        self.comm = comm
        self.mem = mem
        self.name = name
        self.fence_epoch = 0
        # ---- post/start/complete/wait -------------------------------
        #: post tokens received, per posting target rank
        self.post_tokens: dict[int, int] = {}
        #: complete tokens received, per origin rank: the origin's
        #: cumulative op count on the LAPI stacks, 0 otherwise
        self.complete_cums: dict[int, deque] = {}
        self.exposure_origins: set[int] = set()
        self.access_targets: set[int] = set()
        # ---- passive target -----------------------------------------
        self.ledger = _LockLedger()
        self.passive: dict[int, str] = {}  # locked target rank -> lid
        self._granted: set[str] = set()
        # ---- sync plumbing ------------------------------------------
        self._wake_evs: list = []
        self._freed = False

    # ------------------------------------------------------------ misc
    @property
    def size(self) -> int:
        return len(self.mem)

    def task_of(self, rank: int) -> int:
        return self.comm.group[rank]

    def sync_event(self):
        """One-shot event fired at the next RMA state change."""
        ev = self.comm.env.event()
        self._wake_evs.append(ev)
        return ev

    def _wake(self) -> None:
        evs, self._wake_evs = self._wake_evs, []
        for ev in evs:
            if not ev.triggered:
                ev.succeed()

    def _check_live(self) -> None:
        if self._freed:
            raise RmaError(f"window {self.name} has been freed")

    def _trace(self, event: str, **fields) -> None:
        self._engine.stats.trace("rma", event, win=self.name, **fields)

    def _done_request(self, nbytes: int) -> Request:
        """The already-completed request of a self-target rput/rget."""
        req = Request(self._engine.env, "rma")
        req.complete(count=nbytes)
        return req

    def _add_post_token(self, origin: int) -> None:
        self.post_tokens[origin] = self.post_tokens.get(origin, 0) + 1
        self._wake()

    def _take_post_token(self, target: int) -> Generator:
        yield from self._engine._wait_for(
            self, lambda: self.post_tokens.get(target, 0) > 0)
        self.post_tokens[target] -= 1

    def _add_complete_token(self, origin: int, cum: int) -> None:
        self.complete_cums.setdefault(origin, deque()).append(cum)
        self._wake()

    # --------------------------------------------------- data movement
    def put(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Put (optionally strided via a derived ``datatype``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        if datatype is None:
            data = as_bytes(buf)
            yield from eng._enter(self, t, len(data))
        else:
            yield from eng._enter(self)
            data = datatype.pack(buf, count)
            yield from eng.cpu.memcpy("user", len(data))
        mid = eng._record(self, "put", "put", tgt=t, bytes=len(data))
        ranges = None if datatype is None else datatype._flat_ranges(count)
        if t == self.comm.rank:
            yield from _local_put(eng.cpu, self, target_disp, data, ranges)
        else:
            yield from eng._put(self, t, target_disp, data, ranges, mid)

    def get(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Get (optionally strided via a derived ``datatype``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng._enter(self)
        n = datatype.size * count if datatype is not None else len(as_writable(buf))
        mid = eng._record(self, "get", "get", tgt=t, bytes=n)
        if t == self.comm.rank:
            yield from _local_get(eng.cpu, self, buf, target_disp, n,
                                  datatype, count)
        else:
            yield from eng._get(self, buf, t, target_disp, n, datatype, count,
                                mid)

    def accumulate(self, buf, target_rank: int, target_disp: int = 0,
                   op: str = "sum", dtype: Optional[str] = None) -> Generator:
        """MPI_Accumulate (element-wise, atomic per message)."""
        return self._acc(buf, None, target_rank, target_disp, op, dtype)

    def get_accumulate(self, buf, result, target_rank: int,
                       target_disp: int = 0, op: str = "sum",
                       dtype: Optional[str] = None) -> Generator:
        """MPI_Get_accumulate: fetch old contents, then apply."""
        return self._acc(buf, result, target_rank, target_disp, op, dtype)

    def _acc(self, buf, result, t: int, disp: int, op: str,
             dtype: Optional[str]) -> Generator:
        self._check_live()
        _check_acc_op(op)
        eng = self._engine
        yield from eng._enter(self)
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        event, metric = (("accumulate", "acc") if result is None
                         else ("get_accumulate", "gacc"))
        mid = eng._record(self, event, metric, tgt=t, op=op, bytes=len(data))
        if t == self.comm.rank:
            yield from _local_acc(eng.cpu, "user", self.mem, disp, data, op,
                                  dt, result)
        else:
            yield from eng._acc(self, result, t, disp, data, op, dt, mid)

    def fetch_and_op(self, value: int, target_rank: int, target_disp: int = 0,
                     op: str = "sum") -> Generator:
        """MPI_Fetch_and_op on one 64-bit word; returns the old value.
        Blocking (the scalar rmw round-trip *is* the completion)."""
        self._check_live()
        if op not in _RMW_OF:
            raise RmaError(
                f"fetch_and_op supports {sorted(_RMW_OF)}, not {op!r}")
        return (yield from self._rmw(op, value, None, target_rank,
                                     target_disp))

    def compare_and_swap(self, value: int, compare: int, target_rank: int,
                         target_disp: int = 0) -> Generator:
        """MPI_Compare_and_swap on one 64-bit word; returns the old value."""
        self._check_live()
        return (yield from self._rmw("cas", value, compare, target_rank,
                                     target_disp))

    def _rmw(self, op: str, value: int, compare: Optional[int], t: int,
             disp: int) -> Generator:
        eng = self._engine
        yield from eng._enter(self)
        mid = eng._record(self, "rmw", "rmw", tgt=t, op=op)
        if t == self.comm.rank:
            return _local_rmw(self, op, value, compare, disp)
        return (yield from eng._rmw(self, op, value, compare, t, disp, mid))

    def rput(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rput: returns a :class:`Request` that completes when the
        data has been applied at the target."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng._enter(self)
        data = as_bytes(buf)
        mid = eng._record(self, "rput", "put", tgt=t, bytes=len(data))
        if t == self.comm.rank:
            yield from _local_put(eng.cpu, self, target_disp, data)
            return self._done_request(len(data))
        return (yield from eng._rput(self, t, target_disp, data, mid))

    def rget(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rget: returns a :class:`Request` that completes when the
        data has landed in ``buf``."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng._enter(self)
        n = len(as_writable(buf))
        mid = eng._record(self, "rget", "get", tgt=t, bytes=n)
        if t == self.comm.rank:
            yield from _local_get(eng.cpu, self, buf, target_disp, n, None, 1)
            return self._done_request(n)
        return (yield from eng._rget(self, buf, t, target_disp, n, mid))

    # --------------------------------------------------- synchronization
    def fence(self) -> Generator:
        """MPI_Win_fence: close the epoch on every rank (collective)."""
        self._check_live()
        eng = self._engine
        yield from eng._enter(self)
        eng.metrics.counter("rma.fence").incr()
        epoch = self.fence_epoch
        self._trace("fence_enter", epoch=epoch)
        yield from eng._quiesce(self)
        yield from eng._fence(self, epoch)
        self.fence_epoch += 1
        self._trace("fence_exit", epoch=epoch)

    def post(self, origin_ranks: Sequence[int]) -> Generator:
        """MPI_Win_post: expose the window to ``origin_ranks``."""
        self._check_live()
        eng, ranks = self._engine, list(origin_ranks)
        yield from eng._enter(self)
        eng.metrics.counter("rma.post").incr()
        self._trace("post", origins=len(ranks))
        self.exposure_origins = set(ranks)
        me = self.comm.rank
        for r in ranks:
            if r == me:
                self._add_post_token(me)
            else:
                yield from eng._send_post(self, r)

    def start(self, target_ranks: Sequence[int]) -> Generator:
        """MPI_Win_start: open an access epoch to ``target_ranks``."""
        self._check_live()
        eng, ranks = self._engine, list(target_ranks)
        yield from eng._enter(self)
        self._trace("start", targets=len(ranks))
        self.access_targets = set(ranks)
        me = self.comm.rank
        for r in sorted(ranks):
            if r == me:
                yield from self._take_post_token(me)
            else:
                yield from eng._await_post(self, r)

    def complete(self) -> Generator:
        """MPI_Win_complete: close the access epoch."""
        self._check_live()
        eng = self._engine
        yield from eng._enter(self)
        yield from eng._quiesce(self)
        self._trace("complete", targets=len(self.access_targets))
        me = self.comm.rank
        for t in sorted(self.access_targets):
            if t == me:
                self._add_complete_token(me, 0)
            else:
                yield from eng._send_complete(self, t)
        self.access_targets = set()

    def wait(self) -> Generator:
        """MPI_Win_wait: close the exposure epoch."""
        self._check_live()
        eng = self._engine
        yield from eng._enter(self)
        me = self.comm.rank
        for o in sorted(self.exposure_origins):
            if o == me:
                yield from eng._wait_for(self,
                                         lambda: self.complete_cums.get(me))
                self.complete_cums[me].popleft()
            else:
                yield from eng._await_complete(self, o)
        self.exposure_origins = set()
        self._trace("wait_done")

    def lock(self, target_rank: int, exclusive: bool = True) -> Generator:
        """MPI_Win_lock (shared with ``exclusive=False``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        if t in self.passive:
            raise RmaError(f"target {t} already locked by this origin")
        yield from eng._enter(self)
        eng.metrics.counter("rma.lock").incr()
        lid = eng._lock_id()
        self._trace("lock", tgt=t, lid=lid, excl=exclusive)
        if t != self.comm.rank:
            yield from eng._lock(self, t, lid, exclusive)
        elif not self.ledger.try_acquire(lid, exclusive):
            self.ledger.enqueue(lid, exclusive, None)
            yield from eng._wait_for(self, lambda: lid in self._granted)
            self._granted.discard(lid)
        self.passive[t] = lid

    def flush(self, target_rank: int) -> Generator:
        """MPI_Win_flush: complete all ops to the target inside the
        current passive epoch, without releasing the lock."""
        self._check_live()
        eng, t = self._engine, target_rank
        if t not in self.passive:
            raise RmaError(f"flush({t}) outside a passive epoch")
        yield from eng._enter(self)
        self._trace("flush", tgt=t)
        yield from eng._flush(self, t)

    def unlock(self, target_rank: int) -> Generator:
        """MPI_Win_unlock: flushes, then releases the target's lock."""
        self._check_live()
        eng, t = self._engine, target_rank
        lid = self.passive.get(t)
        if lid is None:
            raise RmaError(f"target {t} is not locked by this origin")
        yield from eng._enter(self)
        # flush: every op of this epoch applied/served at the target
        yield from eng._flush(self, t)
        self._trace("unlock", tgt=t, lid=lid)
        if t == self.comm.rank:
            yield from eng._release("user", self, lid)
        else:
            yield from eng._unlock(self, t, lid)
        del self.passive[t]

    def free(self) -> Generator:
        """MPI_Win_free (collective; quiesces like a fence first)."""
        yield from self.fence()  # quiesce + synchronize all ranks
        eng = self._engine
        yield from eng._teardown(self)
        del eng._windows[self.name]
        self._trace("win_free")
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Window {self.name} {len(self.mem)}B rank={self.comm.rank}>"


def win_create(comm, buf) -> Generator:
    """MPI_Win_create (collective over ``comm``).

    ``buf`` may be an int (bytes to allocate — MPI_Win_allocate style),
    a :class:`WindowBuffer`, or any bytes-like object (snapshotted into
    a fresh :class:`WindowBuffer`).  Returns the :class:`Window`.
    """
    if isinstance(buf, int):
        mem = WindowBuffer(buf)
    elif isinstance(buf, WindowBuffer):
        mem = buf
    else:
        mem = WindowBuffer(as_bytes(buf))
    engine = comm.backend.ensure_rma_engine()
    win = Window(engine, comm, mem, _window_name(comm))
    yield from engine._setup(win)
    engine.metrics.counter("rma.windows").incr()
    win._trace("win_create", bytes=len(mem))
    # nobody may target a window before every rank has set it up
    yield from comm.barrier()
    return win


def _window_name(comm) -> str:
    seq = getattr(comm, "_rma_seq", 0)
    comm._rma_seq = seq + 1
    return "rma:" + ":".join(map(str, comm.context)) + f":{seq}"


# ======================================================================
#                     shared engine base (MPI half)
# ======================================================================
class RmaEngine:
    """What both transports share below :class:`Window`: the window
    table, owed replies, ids, the call record, and the target side of
    the lock ledger.  One engine per backend.  Subclasses supply the
    transport hooks: ``_enter`` (entry charge), ``_wait_for`` (their
    own wait loop), ``_put``/``_get``/``_acc``/``_rmw``/``_rput``/
    ``_rget`` (issue to a remote target), ``_send_post``/
    ``_await_post``/``_send_complete``/``_await_complete`` (remote PSCW
    tokens), ``_lock``/``_unlock``/``_grant``, ``_quiesce``/``_fence``/
    ``_flush``, and ``_setup``/``_teardown`` of the per-window
    transport state they keep in ``_windows``.
    """

    def __init__(self, backend):
        self.backend = backend
        self.env = backend.env
        self.cpu = backend.cpu
        self.params = backend.params
        self.stats = backend.stats
        self.metrics = backend.metrics
        #: window name -> this engine's transport state for the window
        self._windows: dict[str, Any] = {}
        #: reply id -> state of a reply owed to this rank
        self._pending: dict[int, Any] = {}
        self._rids = itertools.count()
        self._lock_ids = itertools.count()

    def _mint(self) -> Optional[str]:
        """Message id the transport threads through (none by default)."""
        return None

    def _record(self, win: Window, event: str, metric: str,
                **fields) -> Optional[str]:
        """Count and trace one data-movement call; returns its mid."""
        self.metrics.counter("rma." + metric).incr()
        mid = self._mint()
        if mid is not None:
            fields["mid"] = mid
        win._trace(event, **fields)
        return mid

    def _lock_id(self) -> str:
        """Cluster-unique lock id."""
        return f"{self.backend.task_id}:{next(self._lock_ids)}"

    def _acquire(self, thread: str, win: Window, lid: str, exclusive: bool,
                 ref) -> Generator:
        """Target side of a remote lock request."""
        if win.ledger.try_acquire(lid, exclusive):
            yield from self._grant(thread, win, lid, ref)
        else:
            win.ledger.enqueue(lid, exclusive, ref)

    def _release(self, thread: str, win: Window, lid: str) -> Generator:
        """Release ``lid`` at this target and route the grants it frees."""
        for lid2, _excl2, ref in win.ledger.release(lid):
            if ref is None:
                win._granted.add(lid2)
                win._wake()
            else:
                yield from self._grant(thread, win, lid2, ref)


# ======================================================================
#                        LAPI engine (thin mapping)
# ======================================================================
class _LapiWin:
    """The LAPI engine's transport state for one window."""

    __slots__ = ("win", "sent_to", "fenced", "applied_from",
                 "applied_cid_at", "fence_marks", "deferred", "reply_cntr",
                 "replies_due", "pt_cntr", "pt_due", "unlock_acked")

    def __init__(self, win: Window, reply_cntr: Counter):
        size = win.comm.size
        self.win = win
        #: ops issued to each target rank that bump its applied counter
        self.sent_to = [0] * size
        #: ``sent_to`` as of my last fence: the floor every later op to
        #: that target carries (cumulative, never reset)
        self.fenced = [0] * size
        #: per-origin applied counters at *this* target
        self.applied_from: dict[int, Counter] = {}
        #: counter id of my row in each target's applied table
        self.applied_cid_at: dict[int, int] = {}
        self.fence_marks: dict[int, dict[int, int]] = {}
        #: small contiguous puts queued until the closing sync: the last
        #: one carries the fence marker piggybacked, saving the
        #: standalone marker packet on the critical path
        self.deferred: dict[int, list] = {}
        #: replies (get/sget/gacc data) owed to this origin outside a
        #: passive epoch, and the counter their arrivals bump
        self.reply_cntr = reply_cntr
        self.replies_due = 0
        #: per-target completion counters of passive epochs
        self.pt_cntr: dict[int, Counter] = {}
        self.pt_due: dict[int, int] = {}
        self.unlock_acked: set[str] = set()


class LapiRmaEngine(RmaEngine):
    """RMA over LAPI primitives: one engine per :class:`LapiBackend`.

    Contiguous put/get map straight onto ``LAPI_Put``/``LAPI_Get`` into
    the ``address_init``-registered window (zero-copy at the target);
    strided and accumulate traffic rides ``LAPI_Amsend`` with header
    handlers that resolve the window offset — the paper's §4 trick
    reused for RMA.  Scalar atomics map onto ``LAPI_Rmw``.  All
    target-side work is ``inline_always`` so it runs in dispatcher
    context on every variant: passive-target progress needs no thread
    switch and no target-side MPI call.
    """

    def __init__(self, backend):
        super().__init__(backend)
        self.lapi = backend.lapi
        self._mids = itertools.count()
        for name, fn in (
            ("rma_sput", self._hh_sput),
            ("rma_sget", self._hh_sget),
            ("rma_sget_rep", self._hh_sget_rep),
            ("rma_acc", self._hh_acc),
            ("rma_gacc", self._hh_gacc),
            ("rma_gacc_rep", self._hh_gacc_rep),
            ("rma_fence", self._hh_fence),
            ("rma_put_f", self._hh_put_f),
            ("rma_post", self._hh_post),
            ("rma_complete", self._hh_complete),
            ("rma_lock", self._hh_lock),
            ("rma_lock_grant", self._hh_lock_grant),
            ("rma_unlock", self._hh_unlock),
            ("rma_unlock_ack", self._hh_unlock_ack),
        ):
            self.lapi.register_handler(name, fn, inline_always=True)

    # -------------------------------------------------------- plumbing
    def _mint(self) -> str:
        """Cluster-unique RMA message id (see ``Backend.mint_mid``)."""
        return f"rma{self.backend.task_id}:{next(self._mids)}"

    def _win(self, name: str) -> _LapiWin:
        try:
            return self._windows[name]
        except KeyError:
            raise RmaError(
                f"task {self.backend.task_id}: unknown window {name!r}"
            ) from None

    def _wait(self, thread: str, win: Window, cond) -> Generator:
        """Drive the dispatcher until ``cond()`` holds (LAPI_Waitcntr
        discipline: works in polling mode, and in interrupt mode via
        the window wake events the ISR-run handlers fire)."""
        lapi = self.lapi
        while not cond():
            if lapi.hal.rx_pending:
                yield from lapi.dispatch(thread)
                continue
            self.stats.polls.incr()
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if cond():
                break
            if lapi.hal.rx_pending:
                continue
            yield AnyOf(self.env, [lapi.hal.wait_rx(), win.sync_event()])

    def _wait_for(self, win: Window, cond) -> Generator:
        return self._wait("user", win, cond)

    def _defers(self, win: Window, t: int, nbytes: int) -> bool:
        """Whether a contiguous put is queued until the closing sync."""
        return (t != win.comm.rank and t not in win.passive
                and nbytes <= self.params.rma_agg_limit)

    def _enter(self, win: Window, t: Optional[int] = None,
               put_bytes: Optional[int] = None) -> Generator:
        p = self.params
        queued = put_bytes is not None and self._defers(win, t, put_bytes)
        yield from self.cpu.execute("user",
                                    p.rma_queue_us if queued else p.rma_call_us)

    def _applied(self, st: _LapiWin, t: int) -> dict:
        """LAPI arguments that make target ``t`` count an op applied —
        once every op I issued it before my last fence has been."""
        return {"tgt_cntr_id": st.applied_cid_at[t],
                "tgt_cntr_floor": st.fenced[t]}

    def _flush_deferred(self, st: _LapiWin, t: int,
                        hold_last: bool = False):
        """Issue the puts queued for ``t``.  With ``hold_last`` the final
        op is returned un-issued so the caller can piggyback the fence
        marker on it; otherwise everything goes out as plain puts.
        Called before any other op type to the same target, so program
        order within the epoch is preserved."""
        dq = st.deferred.pop(t, None)
        if not dq:
            return None
        tail = dq.pop() if hold_last else None
        for disp, data, mid in dq:
            yield from self.lapi.put(
                "user", st.win.task_of(t), st.win.name, disp, data, mid=mid,
                **self._applied(st, t))
        return tail

    def _issue(self, st: _LapiWin, t: int) -> Generator:
        """Count one more op to ``t`` (after the puts queued for it) and
        return its :meth:`_applied` arguments."""
        yield from self._flush_deferred(st, t)
        st.sent_to[t] += 1
        return self._applied(st, t)

    def _owed(self, st: _LapiWin, t: int, reply: bool) -> Optional[Counter]:
        """Book one owed completion; returns the counter it bumps.  In a
        passive epoch every op owes one on the target's counter (unlock
        flushes on it); otherwise only a ``reply`` (fetched data) is
        owed, on the window's counter — applied counters cover stores."""
        if t in st.win.passive:
            st.pt_due[t] += 1
            return st.pt_cntr[t]
        if not reply:
            return None
        st.replies_due += 1
        return st.reply_cntr

    # ------------------------------------------------- set-up/tear-down
    def _setup(self, win: Window) -> Generator:
        comm, name, size = win.comm, win.name, win.comm.size
        reply = Counter(self.env, f"rma[{name}].reply")
        reply.subscribe(lambda _c, w=win: w._wake())
        st = self._windows[name] = _LapiWin(win, reply)
        # per-origin applied counters, remotely addressable by id
        cids = [0] * size
        for r in range(size):
            if r == comm.rank:
                continue
            cid, cntr = self.lapi.create_counter(f"rma[{name}][{r}]")
            cntr.subscribe(lambda _c, w=win: w._wake())
            st.applied_from[r] = cntr
            cids[r] = cid
        # exchange the applied-counter ids (one allgather of int64 rows)
        row = np.asarray(cids, dtype=np.int64)
        mat = np.zeros((size, size), dtype=np.int64)
        yield from comm.allgather(row, mat)
        for t in range(size):
            if t != comm.rank:
                st.applied_cid_at[t] = int(mat[t, comm.rank])
        self.lapi.address_init(name, win.mem)

    def _teardown(self, win: Window) -> Generator:
        self.lapi.address_fini(win.name)
        yield from ()

    # ----------------------------------------------------- remote ops
    def _put(self, win: Window, t: int, disp: int, data, ranges,
             mid: str) -> Generator:
        st = self._windows[win.name]
        if ranges is None and self._defers(win, t, len(data)):
            # deferred issue: queue until the closing sync.  The origin
            # buffer may not be modified until then (MPI-3 semantics),
            # so holding the caller's view stays zero-copy.
            st.sent_to[t] += 1
            st.deferred.setdefault(t, []).append((disp, data, mid))
            self.metrics.counter("rma.put_deferred").incr()
            return
        kw = yield from self._issue(st, t)
        cmpl = self._owed(st, t, False)
        if ranges is None:
            yield from self.lapi.put(
                "user", win.task_of(t), win.name, disp, data, cmpl_cntr=cmpl,
                mid=mid, **kw)
        else:
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_sput",
                {"w": win.name, "base": disp, "ranges": ranges},
                data, cmpl_cntr=cmpl, mid=mid, **kw)

    def _get(self, win: Window, buf, t: int, disp: int, n: int, datatype,
             count: int, mid: str) -> Generator:
        st = self._windows[win.name]
        kw = yield from self._issue(st, t)
        acct = self._owed(st, t, True)
        if datatype is None:
            yield from self.lapi.get(
                "user", win.task_of(t), win.name, disp, n, as_writable(buf),
                org_cntr=acct, mid=mid, **kw)
        else:
            rid = next(self._rids)
            tmp = bytearray(n)
            self._pending[rid] = (tmp, datatype, buf, count, acct)
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_sget",
                {"w": win.name, "base": disp,
                 "ranges": datatype._flat_ranges(count), "n": n, "gid": rid,
                 "origin": self.backend.task_id},
                mid=mid, **kw)

    def _acc(self, win: Window, result, t: int, disp: int, data, op: str,
             dt: str, mid: str) -> Generator:
        st = self._windows[win.name]
        kw = yield from self._issue(st, t)
        owed = self._owed(st, t, result is not None)
        uhdr = {"w": win.name, "off": disp, "op": op, "dt": dt}
        if result is None:
            yield from self.lapi.amsend("user", win.task_of(t), "rma_acc",
                                        uhdr, data, cmpl_cntr=owed, mid=mid,
                                        **kw)
            return
        rid = next(self._rids)
        self._pending[rid] = (as_writable(result), owed)
        uhdr.update(gid=rid, origin=self.backend.task_id)
        yield from self.lapi.amsend("user", win.task_of(t), "rma_gacc", uhdr,
                                    data, mid=mid, **kw)

    def _rmw(self, win: Window, op: str, value: int, compare: Optional[int],
             t: int, disp: int, mid: str) -> Generator:
        st = self._windows[win.name]
        kw = yield from self._issue(st, t)
        c = Counter(self.env, "rma.rmw")
        rid = yield from self.lapi.rmw(
            "user", win.task_of(t), win.name,
            "COMPARE_AND_SWAP" if op == "cas" else _RMW_OF[op],
            0 if op == "no_op" else value, prev_cntr=c,
            compare_value=compare, tgt_off=disp, mid=mid, **kw)
        yield from self.lapi.waitcntr("user", c, 1)
        _done, prev = self.lapi.rmw_result(rid)
        return prev

    def _rput(self, win: Window, t: int, disp: int, data,
              mid: str) -> Generator:
        st = self._windows[win.name]
        kw = yield from self._issue(st, t)
        c = Counter(self.env, "rma.rput")
        req = Request.on_counter(self.env, "rma", c)
        owed = self._owed(st, t, False)
        if owed is not None:
            c.subscribe(lambda _c, o=owed: o.incr())
        yield from self.lapi.put(
            "user", win.task_of(t), win.name, disp, data, cmpl_cntr=c,
            mid=mid, **kw)
        return req

    def _rget(self, win: Window, buf, t: int, disp: int, n: int,
              mid: str) -> Generator:
        st = self._windows[win.name]
        kw = yield from self._issue(st, t)
        c = Counter(self.env, "rma.rget")
        req = Request.on_counter(self.env, "rma", c)
        acct = self._owed(st, t, True)
        c.subscribe(lambda _c, a=acct: a.incr())
        yield from self.lapi.get(
            "user", win.task_of(t), win.name, disp, n, as_writable(buf),
            org_cntr=c, mid=mid, **kw)
        return req

    # ----------------------------------------------------------- fence
    def _quiesce(self, win: Window) -> Generator:
        st = self._windows[win.name]
        yield from self._wait(
            "user", win, lambda: st.reply_cntr.value >= st.replies_due)

    def _fence(self, win: Window, epoch: int) -> Generator:
        """Marker fence: tell every peer how many of my ops it should
        have applied (cumulative), then wait for every peer's marker
        *and* the matching applied counts.  One small message per peer
        per fence; no per-op origin echo, and no dependence on the
        delayed transport ack (``lapi_ack_delay_us``).  I may leave
        before a peer has applied my ops; the floor my later ops carry
        keeps them behind."""
        st = self._windows[win.name]
        me = win.comm.rank
        for r in range(win.comm.size):
            if r == me:
                continue
            tail = yield from self._flush_deferred(st, r, hold_last=True)
            if tail is not None:
                # the epoch's last put carries the marker: one packet
                # does data + synchronization
                disp, data, mid = tail
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_put_f",
                    {"w": win.name, "off": disp, "e": epoch,
                     "c": st.sent_to[r], "o": me}, data, mid=mid,
                    **self._applied(st, r))
            else:
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_fence",
                    {"w": win.name, "e": epoch, "c": st.sent_to[r], "o": me})
            st.fenced[r] = st.sent_to[r]
        yield from self._wait("user", win,
                              lambda: self._fence_ready(st, epoch))
        st.fence_marks.pop(epoch, None)

    def _fence_ready(self, st: _LapiWin, epoch: int) -> bool:
        marks = st.fence_marks.get(epoch, {})
        for r in range(st.win.comm.size):
            if r == st.win.comm.rank:
                continue
            cum = marks.get(r)
            if cum is None:
                return False
            if cum > 0 and st.applied_from[r].value < cum:
                return False
        return True

    def _mark(self, name: str, epoch: int, origin: int, cum: int) -> None:
        """Record a peer's fence marker."""
        st = self._win(name)
        st.fence_marks.setdefault(epoch, {})[origin] = cum
        st.win._wake()

    # ------------------------------------------------------ PSCW tokens
    def _send_post(self, win: Window, r: int) -> Generator:
        yield from self.lapi.amsend("user", win.task_of(r), "rma_post",
                                    {"w": win.name, "o": win.comm.rank})

    def _await_post(self, win: Window, r: int) -> Generator:
        return win._take_post_token(r)

    def _send_complete(self, win: Window, t: int) -> Generator:
        st = self._windows[win.name]
        yield from self._flush_deferred(st, t)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_complete",
            {"w": win.name, "c": st.sent_to[t], "o": win.comm.rank})

    def _await_complete(self, win: Window, o: int) -> Generator:
        applied, cums = self._windows[win.name].applied_from[o], win.complete_cums
        yield from self._wait(
            "user", win,
            lambda: bool(cums.get(o)) and applied.value >= cums[o][0])
        cums[o].popleft()

    # -------------------------------------------------- passive target
    def _lock(self, win: Window, t: int, lid: str,
              exclusive: bool) -> Generator:
        st = self._windows[win.name]
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_lock",
            {"w": win.name, "lid": lid, "x": exclusive,
             "ot": self.backend.task_id})
        yield from self._wait("user", win, lambda: lid in win._granted)
        win._granted.discard(lid)
        if t not in st.pt_cntr:
            cntr = Counter(self.env, f"rma[{win.name}].pt{t}")
            cntr.subscribe(lambda _c, w=win: w._wake())
            st.pt_cntr[t] = cntr
            st.pt_due[t] = 0

    def _flush(self, win: Window, t: int) -> Generator:
        """Every op to ``t`` in this passive epoch applied at the target
        and any fetched data landed."""
        st = self._windows[win.name]
        if t in st.pt_cntr:
            yield from self._wait(
                "user", win, lambda: st.pt_cntr[t].value >= st.pt_due[t])

    def _unlock(self, win: Window, t: int, lid: str) -> Generator:
        st = self._windows[win.name]
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_unlock",
            {"w": win.name, "lid": lid, "ot": self.backend.task_id})
        # the ack round-trip orders this release before any later
        # lock we issue over a different fabric route
        yield from self._wait("user", win, lambda: lid in st.unlock_acked)
        st.unlock_acked.discard(lid)

    def _grant(self, thread: str, win: Window, lid: str, ref) -> Generator:
        yield from self.lapi.amsend(thread, ref, "rma_lock_grant",
                                    {"w": win.name, "lid": lid})

    # ------------------------------------------------- header handlers
    # All inline_always: target-side work runs in dispatcher context on
    # every stack variant (the library's internal ops never pay the
    # thread switch) — this is what makes passive target progress work
    # in both polling and interrupt modes.
    def _hh_sput(self, lapi, src, uhdr, mlen):
        mem = self._win(uhdr["w"]).win.mem
        mem.rma_epoch_dirty()
        return (_StridedTarget(memoryview(mem), uhdr["base"],
                               uhdr["ranges"]), None, None)

    def _hh_sget(self, lapi, src, uhdr, mlen):
        def reply(lapi_, thread, d):
            wire = _gather(self._win(d["w"]).win.mem, d["base"], d["ranges"])
            yield from lapi_.cpu.memcpy(thread, len(wire))  # gather copy
            yield from lapi_.amsend(thread, d["origin"], "rma_sget_rep",
                                    {"gid": d["gid"]}, wire)

        return NullTarget(), reply, dict(uhdr)

    def _hh_sget_rep(self, lapi, src, uhdr, mlen):
        tmp, datatype, buf, count, acct = self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            datatype.unpack(bytes(tmp), buf, count)  # scatter copy
            yield from lapi_.cpu.memcpy(thread, len(tmp))
            acct.incr()

        return ByteTarget(tmp), done, None

    def _hh_acc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            # synchronous before any yield => atomic wrt other handlers
            yield from _local_acc(lapi_.cpu, thread, self._win(d["w"]).win.mem,
                                  d["off"], scratch, d["op"], d["dt"])

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            old = bytearray(mlen)
            yield from _local_acc(lapi_.cpu, thread, self._win(d["w"]).win.mem,
                                  d["off"], scratch, d["op"], d["dt"], old)
            yield from lapi_.amsend(thread, d["origin"], "rma_gacc_rep",
                                    {"gid": d["gid"]}, bytes(old))

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc_rep(self, lapi, src, uhdr, mlen):
        view, acct = self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            acct.incr()
            yield from lapi_.cpu.execute(thread, 0.0)

        return ByteTarget(view), done, None

    def _hh_fence(self, lapi, src, uhdr, mlen):
        self._mark(uhdr["w"], uhdr["e"], uhdr["o"], uhdr["c"])
        return NullTarget(), None, None

    def _hh_put_f(self, lapi, src, uhdr, mlen):
        """A put with the origin's fence marker piggybacked: apply the
        data, then record the marker (the payload must land first)."""
        mem = self._win(uhdr["w"]).win.mem
        mem.rma_epoch_dirty()

        def mark(lapi_, thread, d):
            self._mark(d["w"], d["e"], d["o"], d["c"])
            yield from lapi_.cpu.execute(thread, 0.0)

        return ByteTarget(mem, base=uhdr["off"]), mark, dict(uhdr)

    def _hh_post(self, lapi, src, uhdr, mlen):
        self._win(uhdr["w"]).win._add_post_token(uhdr["o"])
        return NullTarget(), None, None

    def _hh_complete(self, lapi, src, uhdr, mlen):
        self._win(uhdr["w"]).win._add_complete_token(uhdr["o"], uhdr["c"])
        return NullTarget(), None, None

    def _hh_lock(self, lapi, src, uhdr, mlen):
        def acquire(lapi_, thread, d):
            yield from self._acquire(thread, self._win(d["w"]).win, d["lid"],
                                     d["x"], d["ot"])

        return NullTarget(), acquire, dict(uhdr)

    def _hh_lock_grant(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"]).win
        win._granted.add(uhdr["lid"])
        win._wake()
        return NullTarget(), None, None

    def _hh_unlock(self, lapi, src, uhdr, mlen):
        def release(lapi_, thread, d):
            yield from self._release(thread, self._win(d["w"]).win, d["lid"])
            yield from lapi_.amsend(thread, d["ot"], "rma_unlock_ack",
                                    {"w": d["w"], "lid": d["lid"]})

        return NullTarget(), release, dict(uhdr)

    def _hh_unlock_ack(self, lapi, src, uhdr, mlen):
        st = self._win(uhdr["w"])
        st.unlock_acked.add(uhdr["lid"])
        st.win._wake()
        return NullTarget(), None, None


# ======================================================================
#                 native engine (two-sided emulation)
# ======================================================================
_REQ_TAG = 1
_POST_TAG = 2
_COMPLETE_TAG = 3
_REPLY_BASE = 16


def _enc(hdr: dict, payload: bytes = b"") -> bytes:
    j = json.dumps(hdr, separators=(",", ":")).encode()
    return struct.pack("<I", len(j)) + j + payload


def _dec(view) -> tuple[dict, bytes]:
    (n,) = struct.unpack_from("<I", view)
    hdr = json.loads(bytes(view[4 : 4 + n]))
    return hdr, bytes(view[4 + n :])


class _NativeWin:
    """The native engine's transport state for one window: its private
    communicator and its window server."""

    __slots__ = ("win", "comm", "stop", "stop_evs", "server")

    def __init__(self, win: Window, comm):
        self.win = win
        self.comm = comm
        self.stop = False
        self.stop_evs: list = []
        self.server = None


class NativeRmaEngine(RmaEngine):
    """RMA emulated over two-sided send/recv on the Pipes stack.

    The reverse of the paper's layering contrast: where MPI-LAPI builds
    two-sided semantics on a one-sided transport, this builds one-sided
    semantics on a two-sided one — every op becomes a request message to
    a per-window *server* process at the target (the target-side
    progress engine a two-sided emulation cannot avoid), which applies
    it and sends an explicit ack/data reply.  The request/ack round
    trips, the matching costs, and the Pipes staging copies are exactly
    the overheads the thin LAPI mapping dodges — measured by
    ``benchmarks/bench_rma.py``.

    All traffic rides a private communicator (the window's comm context
    extended with ``("rma", seq)``) so it can never match user
    receives.  The server runs on the ``user`` thread: library-internal
    progress, no extra context-switch charges.  Every request's reply
    receive stays in ``_pending`` until a fence, complete or flush waits
    it out.
    """

    # -------------------------------------------------------- plumbing
    def _enter(self, win: Window, t: Optional[int] = None,
               put_bytes: Optional[int] = None) -> Generator:
        yield from ()  # the emulation charges nothing at entry

    def _wait_for(self, win: Window, cond) -> Generator:
        return self.backend.wait_until("user", cond, win.sync_event)

    def _op(self, win: Window, t: int, hdr: dict, payload: bytes,
            reply_buf, reply_dt=None, reply_count: int = 1) -> Generator:
        """Issue one request: post the reply receive first (so even a
        rendezvous-sized reply can proceed), then send.  Returns the
        reply Request; both requests join ``_pending``, tagged with
        ``t`` when it is passively locked (that is what ``flush``
        waits out)."""
        comm = self._windows[win.name].comm
        rid = next(self._rids)
        hdr["rid"] = rid
        rreq = yield from comm.irecv(
            reply_buf, source=t, tag=_REPLY_BASE + rid, datatype=reply_dt,
            count=reply_count)
        sreq = yield from comm.isend(_enc(hdr, payload), t, _REQ_TAG)
        self._pending[rid] = (win, t if t in win.passive else None,
                              sreq, rreq)
        return rreq

    def _drain(self, win: Window, t: Optional[int] = None) -> list:
        """Pop the window's requests (only those of ``t``'s passive
        epoch if given), in issue order."""
        reqs = []
        for rid, (w, pt, sreq, rreq) in list(self._pending.items()):
            if w is win and (t is None or pt == t):
                del self._pending[rid]
                reqs += (sreq, rreq)
        return reqs

    # ------------------------------------------------- set-up/tear-down
    def _setup(self, win: Window) -> Generator:
        from repro.mpi.api import Communicator

        comm = win.comm
        seq = int(win.name.rsplit(":", 1)[-1])
        st = self._windows[win.name] = _NativeWin(
            win, Communicator(self.backend, comm.group, comm.rank,
                              comm.context + ("rma", seq)))
        st.server = self.env.process(
            self._server_loop(st), name=f"rma{self.backend.task_id}.srv")
        yield from ()

    def _teardown(self, win: Window) -> Generator:
        st = self._windows[win.name]
        st.stop = True
        evs, st.stop_evs = st.stop_evs, []
        for ev in evs:
            if not ev.triggered:
                ev.succeed()
        yield st.server  # join the window server

    # ----------------------------------------------------- remote ops
    def _put(self, win: Window, t: int, disp: int, data, ranges,
             mid) -> Generator:
        if ranges is None:
            hdr = {"k": "put", "off": disp}
        else:
            hdr = {"k": "sput", "base": disp, "ranges": ranges}
        yield from self._op(win, t, hdr, data, bytearray(0))

    def _get(self, win: Window, buf, t: int, disp: int, n: int, datatype,
             count: int, mid) -> Generator:
        if datatype is None:
            yield from self._op(win, t, {"k": "get", "off": disp, "n": n},
                                b"", buf)
        else:
            hdr = {"k": "sget", "base": disp,
                   "ranges": datatype._flat_ranges(count), "n": n}
            yield from self._op(win, t, hdr, b"", buf, reply_dt=datatype,
                                reply_count=count)

    def _acc(self, win: Window, result, t: int, disp: int, data, op: str,
             dt: str, mid) -> Generator:
        hdr = {"k": "acc" if result is None else "gacc", "off": disp,
               "op": op, "dt": dt}
        yield from self._op(win, t, hdr, data,
                            bytearray(0) if result is None else result)

    def _rmw(self, win: Window, op: str, value: int, compare: Optional[int],
             t: int, disp: int, mid) -> Generator:
        rbuf = bytearray(8)
        rreq = yield from self._op(
            win, t, {"k": "rmw", "op": op, "off": disp, "val": value,
                     "cmp": compare}, b"", rbuf)
        yield from self._windows[win.name].comm.wait(rreq)
        return int.from_bytes(rbuf, "little", signed=True)

    def _rput(self, win: Window, t: int, disp: int, data, mid) -> Generator:
        return self._op(win, t, {"k": "put", "off": disp}, data, bytearray(0))

    def _rget(self, win: Window, buf, t: int, disp: int, n: int,
              mid) -> Generator:
        return self._op(win, t, {"k": "get", "off": disp, "n": n}, b"", buf)

    # ---------------------------------------------------------- sync
    def _quiesce(self, win: Window) -> Generator:
        # every ack in hand => every op of mine is applied at its target
        yield from self._windows[win.name].comm.waitall(self._drain(win))

    def _fence(self, win: Window, epoch: int) -> Generator:
        # the barrier makes "all my ops applied" true for all ranks at once
        yield from self._windows[win.name].comm.barrier()

    def _send_post(self, win: Window, r: int) -> Generator:
        return self._windows[win.name].comm.send(b"", r, _POST_TAG)

    def _await_post(self, win: Window, r: int) -> Generator:
        return self._windows[win.name].comm.recv(bytearray(0), source=r,
                                                 tag=_POST_TAG)

    def _send_complete(self, win: Window, t: int) -> Generator:
        return self._windows[win.name].comm.send(b"", t, _COMPLETE_TAG)

    def _await_complete(self, win: Window, o: int) -> Generator:
        return self._windows[win.name].comm.recv(bytearray(0), source=o,
                                                 tag=_COMPLETE_TAG)

    def _lock(self, win: Window, t: int, lid: str,
              exclusive: bool) -> Generator:
        rreq = yield from self._op(
            win, t, {"k": "lock", "lid": lid, "x": exclusive}, b"",
            bytearray(0))
        yield from self._windows[win.name].comm.wait(rreq)  # the grant

    def _flush(self, win: Window, t: int) -> Generator:
        """Every ack in hand ⇒ every op applied/served."""
        yield from self._windows[win.name].comm.waitall(self._drain(win, t))

    def _unlock(self, win: Window, t: int, lid: str) -> Generator:
        rreq = yield from self._op(win, t, {"k": "unlock", "lid": lid}, b"",
                                   bytearray(0))
        yield from self._windows[win.name].comm.wait(rreq)

    def _grant(self, thread: str, win: Window, lid: str, ref) -> Generator:
        src, rid = ref
        yield from self._windows[win.name].comm.send(b"", src,
                                                     _REPLY_BASE + rid)

    # ------------------------------------------------------ window server
    def _server_loop(self, st: _NativeWin) -> Generator:
        """The target-side progress engine: serve requests until freed."""
        comm = st.comm
        be = self.backend
        buf = bytearray(len(st.win.mem) + 8192)
        while True:
            req = yield from comm.irecv(buf, ANY_SOURCE, _REQ_TAG)
            while not (req.done or req.needs_finalize):
                if st.stop:
                    removed = yield from comm.cancel(req)
                    if removed:
                        return
                    break  # matched mid-cancel: serve it out
                progressed = yield from be.progress("user")
                if req.done or req.needs_finalize or progressed:
                    continue
                ev = self.env.event()
                st.stop_evs.append(ev)
                yield AnyOf(self.env, [be.wait_rx(), req.changed(), ev])
            status = yield from comm.wait(req)
            hdr, payload = _dec(memoryview(buf)[: status.count])
            yield from self._serve(st, status.source, hdr, payload)

    def _serve(self, st: _NativeWin, src: int, hdr: dict,
               payload: bytes) -> Generator:
        comm, win = st.comm, st.win
        mem = win.mem
        kind = hdr["k"]
        rtag = _REPLY_BASE + hdr["rid"]
        if kind == "put":
            yield from _local_put(self.cpu, win, hdr["off"], payload)
            yield from comm.send(b"", src, rtag)
        elif kind == "sput":
            yield from _local_put(self.cpu, win, hdr["base"], payload,
                                  hdr["ranges"])
            yield from comm.send(b"", src, rtag)
        elif kind == "get":
            off, n = hdr["off"], hdr["n"]
            data = bytes(memoryview(mem)[off : off + n])
            yield from self.cpu.memcpy("user", n)
            yield from comm.send(data, src, rtag)
        elif kind == "sget":
            wire = _gather(mem, hdr["base"], hdr["ranges"])
            yield from self.cpu.memcpy("user", len(wire))
            yield from comm.send(wire, src, rtag)
        elif kind in ("acc", "gacc"):
            old = bytearray(len(payload)) if kind == "gacc" else None
            yield from _local_acc(self.cpu, "user", mem, hdr["off"], payload,
                                  hdr["op"], hdr["dt"], old)
            yield from comm.send(b"" if old is None else bytes(old), src, rtag)
        elif kind == "rmw":
            old = _local_rmw(win, hdr["op"], hdr["val"], hdr["cmp"], hdr["off"])
            yield from comm.send(
                (old & _WORD_MASK).to_bytes(8, "little"), src, rtag)
        elif kind == "lock":
            yield from self._acquire("user", win, hdr["lid"], hdr["x"],
                                     (src, hdr["rid"]))
        elif kind == "unlock":
            yield from self._release("user", win, hdr["lid"])
            yield from comm.send(b"", src, rtag)
        else:
            raise RmaError(f"window server got unknown request {kind!r}")
