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

Sync-mode correctness rests on one invariant: every remote data-movement
op increments exactly one per-origin *applied* counter at the target
(``tgt_cntr_id`` for LAPI; the explicit ack for native), so an epoch can
close by comparing a cumulative issued count against a cumulative
applied count — order-independent, hence safe under the fabric's
out-of-order multi-route delivery.

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
    returns the queue entries that become grantable — the caller routes
    the grants (message to a remote origin, direct wake locally).
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

    @property
    def empty(self) -> bool:
        return not self.holders and not self.queue


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

ACC_OPS = ("sum", "prod", "min", "max", "band", "bor", "bxor", "replace",
           "no_op")

#: fetch_and_op -> LAPI_Rmw op (scalar ops ride the rmw fast path)
_RMW_OF = {"sum": "FETCH_AND_ADD", "bor": "FETCH_AND_OR", "replace": "SWAP",
           "no_op": "FETCH_AND_ADD"}


def _apply_acc(mem: WindowBuffer, off: int, data, op: str, dtype: str) -> None:
    """Element-wise accumulate into window memory (runs synchronously in
    dispatcher/server context — that synchrony is the atomicity)."""
    if op == "no_op":
        return
    mem.rma_epoch_dirty()
    view = memoryview(mem)[off : off + len(data)]
    if op == "replace":
        view[:] = data
        return
    try:
        ufunc = _ACC_UFUNCS[op]
    except KeyError:
        raise RmaError(f"unknown accumulate op {op!r}") from None
    dst = np.frombuffer(view, dtype=dtype)
    src = np.frombuffer(data if isinstance(data, (bytes, bytearray)) else bytes(data),
                        dtype=dtype)
    ufunc(dst, src, out=dst)


def _acc_dtype(buf, dtype: Optional[str]) -> str:
    if dtype is not None:
        return dtype
    if isinstance(buf, np.ndarray):
        return buf.dtype.str
    return "|u1"


def _local_put(cpu, win: "Window", disp: int, data, datatype,
               count: int) -> Generator:
    """Put into the caller's own window: a plain copy, no transport."""
    win.mem.rma_epoch_dirty()
    if datatype is None:
        memoryview(win.mem)[disp : disp + len(data)] = data
    else:
        _StridedTarget(memoryview(win.mem), disp,
                       datatype._flat_ranges(count)).write(0, data)
    yield from cpu.memcpy("user", len(data))


def _local_get(cpu, win: "Window", buf, disp: int, n: int, datatype,
               count: int) -> Generator:
    """Get from the caller's own window."""
    src = memoryview(win.mem)
    if datatype is None:
        as_writable(buf)[:n] = src[disp : disp + n]
    else:
        wire = b"".join(
            bytes(src[disp + off : disp + off + ln])
            for off, ln in datatype._flat_ranges(count))
        datatype.unpack(wire, buf, count)
    yield from cpu.memcpy("user", n)


def _local_acc(cpu, win: "Window", disp: int, data, op: str,
               dt: str) -> Generator:
    """Accumulate into the caller's own window."""
    _apply_acc(win.mem, disp, data, op, dt)
    yield from cpu.memcpy("user", len(data))


def _local_gacc(cpu, win: "Window", result, disp: int, data, op: str,
                dt: str) -> Generator:
    """Get-accumulate on the caller's own window: fetch, then apply."""
    old = bytes(memoryview(win.mem)[disp : disp + len(data)])
    _apply_acc(win.mem, disp, data, op, dt)
    as_writable(result)[: len(old)] = old
    yield from cpu.memcpy("user", 2 * len(data))


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


class Window(object):
    """An MPI-3 window: registered memory plus epoch state.

    Created collectively by :func:`win_create`; all methods are
    generators (``yield from win.put(...)``) except the plain accessors.
    The heavy lifting is delegated to the backend's RMA engine — thin
    and zero-copy on the LAPI stacks, emulated over two-sided send/recv
    on the native stack.
    """

    def __init__(self, engine, comm, mem: WindowBuffer, name: str):
        self._engine = engine
        self.comm = comm
        self.mem = mem
        self.name = name
        # ---- issue/apply accounting (cumulative, never reset) -------
        #: ops issued to each target rank that bump its applied counter
        self.sent_to = [0] * comm.size
        #: replies (get/sget/gacc data) owed to this origin
        self.replies_due = 0
        self.reply_cntr: Optional[Counter] = None
        #: per-origin applied counters at *this* target (LAPI engine)
        self.applied_from: dict[int, Counter] = {}
        #: counter id of my row in each target's applied table
        self.applied_cid_at: dict[int, int] = {}
        # ---- fence ---------------------------------------------------
        self.fence_epoch = 0
        self.fence_marks: dict[int, dict[int, int]] = {}
        #: small contiguous puts queued until the closing sync (LAPI
        #: engine): the last one carries the fence marker piggybacked,
        #: saving the standalone marker packet on the critical path
        self.deferred: dict[int, list] = {}
        # ---- post/start/complete/wait -------------------------------
        self.post_tokens: dict[int, int] = {}
        self.complete_cums: dict[int, deque] = {}
        self.exposure_origins: set[int] = set()
        self.access_targets: set[int] = set()
        # ---- passive target -----------------------------------------
        self.ledger = _LockLedger()
        self.passive: dict[int, str] = {}  # locked target rank -> lid
        self.pt_cntr: dict[int, Counter] = {}
        self.pt_due: dict[int, int] = {}
        self._granted: set[str] = set()
        self._unlock_acked: set[str] = set()
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

    # --------------------------------------------------- data movement
    def put(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Put (optionally strided via a derived ``datatype``)."""
        self._check_live()
        yield from self._engine.put(self, buf, target_rank, target_disp,
                                    datatype, count)

    def get(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Get (optionally strided via a derived ``datatype``)."""
        self._check_live()
        yield from self._engine.get(self, buf, target_rank, target_disp,
                                    datatype, count)

    def accumulate(self, buf, target_rank: int, target_disp: int = 0,
                   op: str = "sum", dtype: Optional[str] = None) -> Generator:
        """MPI_Accumulate (element-wise, atomic per message)."""
        self._check_live()
        yield from self._engine.accumulate(self, buf, target_rank,
                                           target_disp, op, dtype)

    def get_accumulate(self, buf, result, target_rank: int,
                       target_disp: int = 0, op: str = "sum",
                       dtype: Optional[str] = None) -> Generator:
        """MPI_Get_accumulate: fetch old contents, then apply."""
        self._check_live()
        yield from self._engine.get_accumulate(self, buf, result, target_rank,
                                               target_disp, op, dtype)

    def fetch_and_op(self, value: int, target_rank: int, target_disp: int = 0,
                     op: str = "sum") -> Generator:
        """MPI_Fetch_and_op on one 64-bit word; returns the old value.
        Blocking (the scalar rmw round-trip *is* the completion)."""
        self._check_live()
        return (yield from self._engine.fetch_and_op(
            self, value, target_rank, target_disp, op))

    def compare_and_swap(self, value: int, compare: int, target_rank: int,
                         target_disp: int = 0) -> Generator:
        """MPI_Compare_and_swap on one 64-bit word; returns the old value."""
        self._check_live()
        return (yield from self._engine.compare_and_swap(
            self, value, compare, target_rank, target_disp))

    def rput(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rput: returns a :class:`Request` that completes when the
        data has been applied at the target."""
        self._check_live()
        return (yield from self._engine.rput(self, buf, target_rank,
                                             target_disp))

    def rget(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rget: returns a :class:`Request` that completes when the
        data has landed in ``buf``."""
        self._check_live()
        return (yield from self._engine.rget(self, buf, target_rank,
                                             target_disp))

    # --------------------------------------------------- synchronization
    def fence(self) -> Generator:
        """MPI_Win_fence: close the epoch on every rank (collective)."""
        self._check_live()
        yield from self._engine.fence(self)

    def post(self, origin_ranks: Sequence[int]) -> Generator:
        """MPI_Win_post: expose the window to ``origin_ranks``."""
        self._check_live()
        yield from self._engine.post(self, list(origin_ranks))

    def start(self, target_ranks: Sequence[int]) -> Generator:
        """MPI_Win_start: open an access epoch to ``target_ranks``."""
        self._check_live()
        yield from self._engine.start(self, list(target_ranks))

    def complete(self) -> Generator:
        """MPI_Win_complete: close the access epoch."""
        self._check_live()
        yield from self._engine.complete(self)

    def wait(self) -> Generator:
        """MPI_Win_wait: close the exposure epoch."""
        self._check_live()
        yield from self._engine.wait(self)

    def lock(self, target_rank: int, exclusive: bool = True) -> Generator:
        """MPI_Win_lock (shared with ``exclusive=False``)."""
        self._check_live()
        yield from self._engine.lock(self, target_rank, exclusive)

    def flush(self, target_rank: int) -> Generator:
        """MPI_Win_flush: complete all ops to the target inside the
        current passive epoch, without releasing the lock."""
        self._check_live()
        yield from self._engine.flush(self, target_rank)

    def unlock(self, target_rank: int) -> Generator:
        """MPI_Win_unlock: flushes, then releases the target's lock."""
        self._check_live()
        yield from self._engine.unlock(self, target_rank)

    def free(self) -> Generator:
        """MPI_Win_free (collective; quiesces like a fence first)."""
        self._check_live()
        yield from self._engine.free(self)
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
    win = yield from engine.win_create(comm, mem)
    return win


def _window_name(comm) -> str:
    seq = getattr(comm, "_rma_seq", 0)
    comm._rma_seq = seq + 1
    return "rma:" + ":".join(map(str, comm.context)) + f":{seq}"


# ======================================================================
#                        LAPI engine (thin mapping)
# ======================================================================
class LapiRmaEngine:
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
        self.backend = backend
        self.lapi = backend.lapi
        self.env = backend.env
        self.cpu = backend.cpu
        self.params = backend.params
        self.stats = backend.stats
        self.metrics = backend.metrics
        self._windows: dict[str, Window] = {}
        self._pending: dict[int, tuple] = {}  # gid -> sget/gacc reply state
        self._gids = itertools.count()
        self._lock_ids = itertools.count()
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

    def _win(self, name: str) -> Window:
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
            self.stats.polls += 1
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if cond():
                break
            if lapi.hal.rx_pending:
                continue
            yield AnyOf(self.env, [lapi.hal.wait_rx(), win.sync_event()])

    def _flush_deferred(self, win: Window, t: int,
                        hold_last: bool = False):
        """Issue the puts queued for ``t``.  With ``hold_last`` the final
        op is returned un-issued so the caller can piggyback the fence
        marker on it; otherwise everything goes out as plain puts.
        Called before any other op type to the same target, so program
        order within the epoch is preserved."""
        dq = win.deferred.pop(t, None)
        if not dq:
            return None
        tail = dq.pop() if hold_last else None
        for disp, data, mid in dq:
            yield from self.lapi.put(
                "user", win.task_of(t), win.name, disp, data,
                tgt_cntr_id=win.applied_cid_at[t], mid=mid)
        return tail

    def _acct_issue(self, win: Window, t: int) -> Counter:
        """Book one owed reply; returns the counter the reply bumps
        (per-target during a passive epoch, the window's otherwise)."""
        if t in win.passive:
            win.pt_due[t] += 1
            return win.pt_cntr[t]
        win.replies_due += 1
        return win.reply_cntr

    def _passive_cmpl(self, win: Window, t: int) -> Optional[Counter]:
        """Completion-echo counter for store ops during a passive epoch
        (unlock flushes on it); active epochs use applied counters and
        need no per-op echo."""
        if t in win.passive:
            win.pt_due[t] += 1
            return win.pt_cntr[t]
        return None

    # --------------------------------------------------------- win_create
    def win_create(self, comm, mem: WindowBuffer) -> Generator:
        name = _window_name(comm)
        win = Window(self, comm, mem, name)
        self._windows[name] = win
        size = comm.size
        # per-origin applied counters, remotely addressable by id
        cids = [0] * size
        for r in range(size):
            if r == comm.rank:
                continue
            cid, cntr = self.lapi.create_counter(f"rma[{name}][{r}]")
            cntr.subscribe(lambda _c, w=win: w._wake())
            win.applied_from[r] = cntr
            cids[r] = cid
        win.reply_cntr = Counter(self.env, f"rma[{name}].reply")
        win.reply_cntr.subscribe(lambda _c, w=win: w._wake())
        # exchange the applied-counter ids (one allgather of int64 rows)
        row = np.asarray(cids, dtype=np.int64)
        mat = np.zeros((size, size), dtype=np.int64)
        yield from comm.allgather(row, mat)
        for t in range(size):
            if t != comm.rank:
                win.applied_cid_at[t] = int(mat[t, comm.rank])
        self.lapi.address_init(name, mem)
        self.metrics.counter("rma.windows").incr()
        self.stats.trace("rma", "win_create", win=name, bytes=len(mem))
        # nobody may target a window before every rank registered it
        yield from comm.barrier()
        return win

    # ------------------------------------------------------------- put
    def put(self, win: Window, buf, t: int, disp: int, datatype,
            count: int) -> Generator:
        p = self.params
        if datatype is None:
            data = as_bytes(buf)
            defer = (t != win.comm.rank and t not in win.passive
                     and len(data) <= p.rma_agg_limit)
            yield from self.cpu.execute(
                "user", p.rma_queue_us if defer else p.rma_call_us)
        else:
            defer = False
            yield from self.cpu.execute("user", p.rma_call_us)
            data = datatype.pack(buf, count)
            yield from self.cpu.memcpy("user", len(data))
        self.metrics.counter("rma.put").incr()
        mid = self._mint()
        self.stats.trace("rma", "put", win=win.name, tgt=t, bytes=len(data),
                         mid=mid)
        if t == win.comm.rank:
            yield from _local_put(self.cpu, win, disp, data, datatype, count)
            return
        if defer:
            # deferred issue: queue until the closing sync.  The origin
            # buffer may not be modified until then (MPI-3 semantics),
            # so holding the caller's view stays zero-copy.
            win.sent_to[t] += 1
            win.deferred.setdefault(t, []).append((disp, data, mid))
            self.metrics.counter("rma.put_deferred").incr()
            return
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        cmpl = self._passive_cmpl(win, t)
        if datatype is None:
            yield from self.lapi.put(
                "user", win.task_of(t), win.name, disp, data,
                tgt_cntr_id=win.applied_cid_at[t], cmpl_cntr=cmpl, mid=mid)
        else:
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_sput",
                {"w": win.name, "base": disp,
                 "ranges": datatype._flat_ranges(count)},
                data, tgt_cntr_id=win.applied_cid_at[t], cmpl_cntr=cmpl,
                mid=mid)

    # ------------------------------------------------------------- get
    def get(self, win: Window, buf, t: int, disp: int, datatype,
            count: int) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        n = datatype.size * count if datatype is not None else len(as_writable(buf))
        self.metrics.counter("rma.get").incr()
        mid = self._mint()
        self.stats.trace("rma", "get", win=win.name, tgt=t, bytes=n, mid=mid)
        if t == win.comm.rank:
            yield from _local_get(self.cpu, win, buf, disp, n, datatype, count)
            return
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        acct = self._acct_issue(win, t)
        if datatype is None:
            yield from self.lapi.get(
                "user", win.task_of(t), win.name, disp, n, as_writable(buf),
                org_cntr=acct, tgt_cntr_id=win.applied_cid_at[t], mid=mid)
        else:
            gid = next(self._gids)
            tmp = bytearray(n)
            self._pending[gid] = ("sget", win, tmp, datatype, buf, count, acct)
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_sget",
                {"w": win.name, "base": disp,
                 "ranges": datatype._flat_ranges(count), "n": n, "gid": gid,
                 "origin": self.backend.task_id},
                tgt_cntr_id=win.applied_cid_at[t], mid=mid)

    # ------------------------------------------------------ accumulate
    def accumulate(self, win: Window, buf, t: int, disp: int, op: str,
                   dtype: Optional[str]) -> Generator:
        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}")
        yield from self.cpu.execute("user", self.params.rma_call_us)
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        self.metrics.counter("rma.acc").incr()
        mid = self._mint()
        self.stats.trace("rma", "accumulate", win=win.name, tgt=t, op=op,
                         bytes=len(data), mid=mid)
        if t == win.comm.rank:
            yield from _local_acc(self.cpu, win, disp, data, op, dt)
            return
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        cmpl = self._passive_cmpl(win, t)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_acc",
            {"w": win.name, "off": disp, "op": op, "dt": dt}, data,
            tgt_cntr_id=win.applied_cid_at[t], cmpl_cntr=cmpl, mid=mid)

    def get_accumulate(self, win: Window, buf, result, t: int, disp: int,
                       op: str, dtype: Optional[str]) -> Generator:
        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}")
        yield from self.cpu.execute("user", self.params.rma_call_us)
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        self.metrics.counter("rma.gacc").incr()
        mid = self._mint()
        self.stats.trace("rma", "get_accumulate", win=win.name, tgt=t, op=op,
                         bytes=len(data), mid=mid)
        if t == win.comm.rank:
            yield from _local_gacc(self.cpu, win, result, disp, data, op, dt)
            return
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        acct = self._acct_issue(win, t)
        gid = next(self._gids)
        self._pending[gid] = ("gacc", win, as_writable(result), acct)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_gacc",
            {"w": win.name, "off": disp, "op": op, "dt": dt, "gid": gid,
             "origin": self.backend.task_id},
            data, tgt_cntr_id=win.applied_cid_at[t], mid=mid)

    # -------------------------------------------------- scalar atomics
    def fetch_and_op(self, win: Window, value: int, t: int, disp: int,
                     op: str) -> Generator:
        if op not in _RMW_OF:
            raise RmaError(
                f"fetch_and_op supports {sorted(_RMW_OF)}, not {op!r}")
        return (yield from self._rmw(win, op, value, None, t, disp))

    def compare_and_swap(self, win: Window, value: int, compare: int, t: int,
                         disp: int) -> Generator:
        return (yield from self._rmw(win, "cas", value, compare, t, disp))

    def _rmw(self, win: Window, op: str, value: int,
             compare: Optional[int], t: int, disp: int) -> Generator:
        rmw_op = "COMPARE_AND_SWAP" if op == "cas" else _RMW_OF[op]
        yield from self.cpu.execute("user", self.params.rma_call_us)
        self.metrics.counter("rma.rmw").incr()
        self.stats.trace("rma", "rmw", win=win.name, tgt=t, op=rmw_op)
        if t == win.comm.rank:
            return _local_rmw(win, op, value, compare, disp)
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        c = Counter(self.env, "rma.rmw")
        rid = yield from self.lapi.rmw(
            "user", win.task_of(t), win.name, rmw_op,
            0 if op == "no_op" else value, prev_cntr=c,
            compare_value=compare, tgt_off=disp,
            tgt_cntr_id=win.applied_cid_at[t])
        yield from self.lapi.waitcntr("user", c, 1)
        _done, prev = self.lapi.rmw_result(rid)
        return prev

    # -------------------------------------------------- request-based
    def rput(self, win: Window, buf, t: int, disp: int) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        data = as_bytes(buf)
        self.metrics.counter("rma.put").incr()
        mid = self._mint()
        self.stats.trace("rma", "rput", win=win.name, tgt=t, bytes=len(data),
                         mid=mid)
        if t == win.comm.rank:
            yield from _local_put(self.cpu, win, disp, data, None, 1)
            req = Request(self.env, "rma")
            req.complete(count=len(data))
            return req
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        c = Counter(self.env, "rma.rput")
        req = Request.on_counter(self.env, "rma", c)
        if t in win.passive:
            win.pt_due[t] += 1
            c.subscribe(lambda _c, w=win, tr=t: w.pt_cntr[tr].incr())
        yield from self.lapi.put(
            "user", win.task_of(t), win.name, disp, data,
            tgt_cntr_id=win.applied_cid_at[t], cmpl_cntr=c, mid=mid)
        return req

    def rget(self, win: Window, buf, t: int, disp: int) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        n = len(as_writable(buf))
        self.metrics.counter("rma.get").incr()
        mid = self._mint()
        self.stats.trace("rma", "rget", win=win.name, tgt=t, bytes=n, mid=mid)
        if t == win.comm.rank:
            yield from _local_get(self.cpu, win, buf, disp, n, None, 1)
            req = Request(self.env, "rma")
            req.complete(count=n)
            return req
        yield from self._flush_deferred(win, t)
        win.sent_to[t] += 1
        c = Counter(self.env, "rma.rget")
        req = Request.on_counter(self.env, "rma", c)
        acct = self._acct_issue(win, t)
        c.subscribe(lambda _c, a=acct: a.incr())
        yield from self.lapi.get(
            "user", win.task_of(t), win.name, disp, n, as_writable(buf),
            org_cntr=c, tgt_cntr_id=win.applied_cid_at[t], mid=mid)
        return req

    # ----------------------------------------------------------- fence
    def fence(self, win: Window) -> Generator:
        """Marker fence: wait for owed replies, tell every peer how many
        of my ops it should have applied (cumulative — order-independent
        under multi-route delivery), then wait for every peer's marker
        *and* the matching applied counts.  One small message per peer
        per fence; no per-op origin echo, and no dependence on the
        delayed transport ack (``lapi_ack_delay_us``)."""
        yield from self.cpu.execute("user", self.params.rma_call_us)
        self.metrics.counter("rma.fence").incr()
        epoch = win.fence_epoch
        self.stats.trace("rma", "fence_enter", win=win.name, epoch=epoch)
        yield from self._wait(
            "user", win, lambda: win.reply_cntr.value >= win.replies_due)
        me = win.comm.rank
        for r in range(win.comm.size):
            if r == me:
                continue
            tail = yield from self._flush_deferred(win, r, hold_last=True)
            if tail is not None:
                # the epoch's last put carries the marker: one packet
                # does data + synchronization
                disp, data, mid = tail
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_put_f",
                    {"w": win.name, "off": disp, "e": epoch,
                     "c": win.sent_to[r], "o": me}, data,
                    tgt_cntr_id=win.applied_cid_at[r], mid=mid)
            else:
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_fence",
                    {"w": win.name, "e": epoch, "c": win.sent_to[r], "o": me})
        yield from self._wait("user", win,
                              lambda: self._fence_ready(win, epoch))
        win.fence_marks.pop(epoch, None)
        win.fence_epoch += 1
        self.stats.trace("rma", "fence_exit", win=win.name, epoch=epoch)

    def _fence_ready(self, win: Window, epoch: int) -> bool:
        marks = win.fence_marks.get(epoch, {})
        for r in range(win.comm.size):
            if r == win.comm.rank:
                continue
            cum = marks.get(r)
            if cum is None:
                return False
            if cum > 0 and win.applied_from[r].value < cum:
                return False
        return True

    # ------------------------------------------- post/start/complete/wait
    def post(self, win: Window, ranks: list[int]) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        self.metrics.counter("rma.post").incr()
        self.stats.trace("rma", "post", win=win.name, origins=len(ranks))
        win.exposure_origins = set(ranks)
        me = win.comm.rank
        for r in ranks:
            if r == me:
                win.post_tokens[me] = win.post_tokens.get(me, 0) + 1
                win._wake()
            else:
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_post",
                    {"w": win.name, "o": me})

    def start(self, win: Window, ranks: list[int]) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        self.stats.trace("rma", "start", win=win.name, targets=len(ranks))
        win.access_targets = set(ranks)
        for r in sorted(ranks):
            yield from self._wait(
                "user", win, lambda r=r: win.post_tokens.get(r, 0) > 0)
            win.post_tokens[r] -= 1

    def complete(self, win: Window) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        yield from self._wait(
            "user", win, lambda: win.reply_cntr.value >= win.replies_due)
        me = win.comm.rank
        self.stats.trace("rma", "complete", win=win.name,
                         targets=len(win.access_targets))
        for t in sorted(win.access_targets):
            if t == me:
                win.complete_cums.setdefault(me, deque()).append(0)
                win._wake()
            else:
                yield from self._flush_deferred(win, t)
                yield from self.lapi.amsend(
                    "user", win.task_of(t), "rma_complete",
                    {"w": win.name, "c": win.sent_to[t], "o": me})
        win.access_targets = set()

    def wait(self, win: Window) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        me = win.comm.rank
        for o in sorted(win.exposure_origins):
            if o == me:
                yield from self._wait(
                    "user", win, lambda: win.complete_cums.get(me))
                win.complete_cums[me].popleft()
                continue
            yield from self._wait(
                "user", win,
                lambda o=o: bool(win.complete_cums.get(o))
                and win.applied_from[o].value >= win.complete_cums[o][0])
            win.complete_cums[o].popleft()
        win.exposure_origins = set()
        self.stats.trace("rma", "wait_done", win=win.name)

    # -------------------------------------------------- passive target
    def lock(self, win: Window, t: int, exclusive: bool) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        if t in win.passive:
            raise RmaError(f"target {t} already locked by this origin")
        self.metrics.counter("rma.lock").incr()
        lid = f"{self.backend.task_id}:{next(self._lock_ids)}"
        self.stats.trace("rma", "lock", win=win.name, tgt=t, lid=lid,
                         excl=exclusive)
        if t == win.comm.rank:
            if not win.ledger.try_acquire(lid, exclusive):
                win.ledger.enqueue(lid, exclusive, ("local",))
                yield from self._wait("user", win,
                                      lambda: lid in win._granted)
                win._granted.discard(lid)
        else:
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_lock",
                {"w": win.name, "lid": lid, "x": exclusive,
                 "ot": self.backend.task_id})
            yield from self._wait("user", win, lambda: lid in win._granted)
            win._granted.discard(lid)
        win.passive[t] = lid
        if t not in win.pt_cntr:
            cntr = Counter(self.env, f"rma[{win.name}].pt{t}")
            cntr.subscribe(lambda _c, w=win: w._wake())
            win.pt_cntr[t] = cntr
            win.pt_due[t] = 0

    def flush(self, win: Window, t: int) -> Generator:
        """MPI_Win_flush: all ops to ``t`` in this passive epoch are
        applied at the target and any fetched data has landed."""
        yield from self.cpu.execute("user", self.params.rma_call_us)
        if t not in win.passive:
            raise RmaError(f"flush({t}) outside a passive epoch")
        self.stats.trace("rma", "flush", win=win.name, tgt=t)
        if t in win.pt_cntr:
            yield from self._wait(
                "user", win,
                lambda: win.pt_cntr[t].value >= win.pt_due[t])

    def unlock(self, win: Window, t: int) -> Generator:
        yield from self.cpu.execute("user", self.params.rma_call_us)
        lid = win.passive.get(t)
        if lid is None:
            raise RmaError(f"target {t} is not locked by this origin")
        # flush: every op of this epoch applied/served at the target
        if t in win.pt_cntr:
            yield from self._wait(
                "user", win,
                lambda: win.pt_cntr[t].value >= win.pt_due[t])
        self.stats.trace("rma", "unlock", win=win.name, tgt=t, lid=lid)
        if t == win.comm.rank:
            grants = win.ledger.release(lid)
            yield from self._route_grants("user", win, grants)
        else:
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_unlock",
                {"w": win.name, "lid": lid, "ot": self.backend.task_id})
            # the ack round-trip orders this release before any later
            # lock we issue over a different fabric route
            yield from self._wait("user", win,
                                  lambda: lid in win._unlock_acked)
            win._unlock_acked.discard(lid)
        del win.passive[t]

    def _route_grants(self, thread: str, win: Window, grants) -> Generator:
        for lid2, _excl2, ref in grants:
            if ref[0] == "local":
                win._granted.add(lid2)
                win._wake()
            else:
                yield from self.lapi.amsend(
                    thread, ref[1], "rma_lock_grant",
                    {"w": win.name, "lid": lid2})

    # ------------------------------------------------------------ free
    def free(self, win: Window) -> Generator:
        yield from self.fence(win)  # quiesce + synchronize all ranks
        if hasattr(self.lapi, "address_fini"):
            self.lapi.address_fini(win.name)
        del self._windows[win.name]
        self.stats.trace("rma", "win_free", win=win.name)

    # ------------------------------------------------- header handlers
    # All inline_always: target-side work runs in dispatcher context on
    # every stack variant (the library's internal ops never pay the
    # thread switch) — this is what makes passive target progress work
    # in both polling and interrupt modes.
    def _hh_sput(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win.mem.rma_epoch_dirty()
        return (_StridedTarget(memoryview(win.mem), uhdr["base"],
                               uhdr["ranges"]), None, None)

    def _hh_sget(self, lapi, src, uhdr, mlen):
        def reply(lapi_, thread, d):
            win = self._win(d["w"])
            view = memoryview(win.mem)
            base = d["base"]
            wire = b"".join(
                bytes(view[base + off : base + off + ln])
                for off, ln in d["ranges"])
            yield from lapi_.cpu.memcpy(thread, len(wire))  # gather copy
            yield from lapi_.amsend(thread, d["origin"], "rma_sget_rep",
                                    {"gid": d["gid"]}, wire)

        return NullTarget(), reply, dict(uhdr)

    def _hh_sget_rep(self, lapi, src, uhdr, mlen):
        _kind, _win, tmp, datatype, buf, count, acct = \
            self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            datatype.unpack(bytes(tmp), buf, count)  # scatter copy
            yield from lapi_.cpu.memcpy(thread, len(tmp))
            acct.incr()

        return ByteTarget(tmp), done, None

    def _hh_acc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            win = self._win(d["w"])
            # synchronous before any yield => atomic wrt other handlers
            _apply_acc(win.mem, d["off"], scratch, d["op"], d["dt"])
            yield from lapi_.cpu.memcpy(thread, len(scratch))

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            win = self._win(d["w"])
            off = d["off"]
            old = bytes(memoryview(win.mem)[off : off + len(scratch)])
            _apply_acc(win.mem, off, scratch, d["op"], d["dt"])
            yield from lapi_.cpu.memcpy(thread, 2 * len(scratch))
            yield from lapi_.amsend(thread, d["origin"], "rma_gacc_rep",
                                    {"gid": d["gid"]}, old)

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc_rep(self, lapi, src, uhdr, mlen):
        _kind, _win, view, acct = self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            acct.incr()
            yield from lapi_.cpu.execute(thread, 0.0)

        return ByteTarget(view), done, None

    def _hh_fence(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win.fence_marks.setdefault(uhdr["e"], {})[uhdr["o"]] = uhdr["c"]
        win._wake()
        return NullTarget(), None, None

    def _hh_put_f(self, lapi, src, uhdr, mlen):
        """A put with the origin's fence marker piggybacked: apply the
        data, then record the marker (the payload must land first)."""
        win = self._win(uhdr["w"])
        win.mem.rma_epoch_dirty()

        def mark(lapi_, thread, d):
            w = self._win(d["w"])
            w.fence_marks.setdefault(d["e"], {})[d["o"]] = d["c"]
            w._wake()
            yield from lapi_.cpu.execute(thread, 0.0)

        return ByteTarget(win.mem, base=uhdr["off"]), mark, dict(uhdr)

    def _hh_post(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        o = uhdr["o"]
        win.post_tokens[o] = win.post_tokens.get(o, 0) + 1
        win._wake()
        return NullTarget(), None, None

    def _hh_complete(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win.complete_cums.setdefault(uhdr["o"], deque()).append(uhdr["c"])
        win._wake()
        return NullTarget(), None, None

    def _hh_lock(self, lapi, src, uhdr, mlen):
        def acquire(lapi_, thread, d):
            win = self._win(d["w"])
            if win.ledger.try_acquire(d["lid"], d["x"]):
                yield from lapi_.amsend(thread, d["ot"], "rma_lock_grant",
                                        {"w": d["w"], "lid": d["lid"]})
            else:
                win.ledger.enqueue(d["lid"], d["x"], ("remote", d["ot"]))

        return NullTarget(), acquire, dict(uhdr)

    def _hh_lock_grant(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win._granted.add(uhdr["lid"])
        win._wake()
        return NullTarget(), None, None

    def _hh_unlock(self, lapi, src, uhdr, mlen):
        def release(lapi_, thread, d):
            win = self._win(d["w"])
            grants = win.ledger.release(d["lid"])
            yield from self._route_grants(thread, win, grants)
            yield from lapi_.amsend(thread, d["ot"], "rma_unlock_ack",
                                    {"w": d["w"], "lid": d["lid"]})

        return NullTarget(), release, dict(uhdr)

    def _hh_unlock_ack(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win._unlock_acked.add(uhdr["lid"])
        win._wake()
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


class NativeRmaEngine:
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
    progress, no extra context-switch charges.
    """

    def __init__(self, backend):
        self.backend = backend
        self.env = backend.env
        self.cpu = backend.cpu
        self.params = backend.params
        self.stats = backend.stats
        self.metrics = backend.metrics
        self._windows: dict[str, Window] = {}
        self._rids = itertools.count()
        self._lock_ids = itertools.count()

    # --------------------------------------------------------- win_create
    def win_create(self, comm, mem: WindowBuffer) -> Generator:
        from repro.mpi.api import Communicator

        name = _window_name(comm)
        win = Window(self, comm, mem, name)
        self._windows[name] = win
        seq = name.rsplit(":", 1)[-1]
        win._comm = Communicator(self.backend, comm.group, comm.rank,
                                 comm.context + ("rma", int(seq)))
        win._pending = []
        win._pt_pending = {}
        win._stop = False
        win._stop_evs = []
        win._server = self.env.process(
            self._server_loop(win), name=f"rma{self.backend.task_id}.srv")
        self.metrics.counter("rma.windows").incr()
        self.stats.trace("rma", "win_create", win=name, bytes=len(mem))
        # nobody may target a window before every rank's server is up
        yield from comm.barrier()
        return win

    # -------------------------------------------------------- op plumbing
    def _op(self, win: Window, t: int, hdr: dict, payload: bytes,
            reply_buf, reply_dt=None, reply_count: int = 1) -> Generator:
        """Issue one request: post the reply receive first (so even a
        rendezvous-sized reply can proceed), then send.  Returns the
        reply Request; both requests join the window's pending lists."""
        rid = next(self._rids)
        hdr["rid"] = rid
        rreq = yield from win._comm.irecv(
            reply_buf, source=t, tag=_REPLY_BASE + rid, datatype=reply_dt,
            count=reply_count)
        sreq = yield from win._comm.isend(_enc(hdr, payload), t, _REQ_TAG)
        win._pending.extend((sreq, rreq))
        if t in win.passive:
            win._pt_pending.setdefault(t, []).extend((sreq, rreq))
        return rreq

    # ------------------------------------------------------ data movement
    def put(self, win: Window, buf, t: int, disp: int, datatype,
            count: int) -> Generator:
        if datatype is None:
            data = as_bytes(buf)
        else:
            data = datatype.pack(buf, count)
            yield from self.cpu.memcpy("user", len(data))
        self.metrics.counter("rma.put").incr()
        self.stats.trace("rma", "put", win=win.name, tgt=t, bytes=len(data))
        if t == win.comm.rank:
            yield from _local_put(self.cpu, win, disp, data, datatype, count)
            return
        if datatype is None:
            hdr = {"k": "put", "off": disp}
        else:
            hdr = {"k": "sput", "base": disp,
                   "ranges": datatype._flat_ranges(count)}
        yield from self._op(win, t, hdr, data, bytearray(0))

    def get(self, win: Window, buf, t: int, disp: int, datatype,
            count: int) -> Generator:
        n = datatype.size * count if datatype is not None else len(as_writable(buf))
        self.metrics.counter("rma.get").incr()
        self.stats.trace("rma", "get", win=win.name, tgt=t, bytes=n)
        if t == win.comm.rank:
            yield from _local_get(self.cpu, win, buf, disp, n, datatype, count)
            return
        if datatype is None:
            hdr = {"k": "get", "off": disp, "n": n}
            yield from self._op(win, t, hdr, b"", buf)
        else:
            hdr = {"k": "sget", "base": disp,
                   "ranges": datatype._flat_ranges(count), "n": n}
            yield from self._op(win, t, hdr, b"", buf, reply_dt=datatype,
                                reply_count=count)

    def accumulate(self, win: Window, buf, t: int, disp: int, op: str,
                   dtype: Optional[str]) -> Generator:
        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}")
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        self.metrics.counter("rma.acc").incr()
        self.stats.trace("rma", "accumulate", win=win.name, tgt=t, op=op,
                         bytes=len(data))
        if t == win.comm.rank:
            yield from _local_acc(self.cpu, win, disp, data, op, dt)
            return
        yield from self._op(win, t, {"k": "acc", "off": disp, "op": op,
                                     "dt": dt}, data, bytearray(0))

    def get_accumulate(self, win: Window, buf, result, t: int, disp: int,
                       op: str, dtype: Optional[str]) -> Generator:
        if op not in ACC_OPS:
            raise RmaError(f"unknown accumulate op {op!r}")
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        self.metrics.counter("rma.gacc").incr()
        self.stats.trace("rma", "get_accumulate", win=win.name, tgt=t, op=op,
                         bytes=len(data))
        if t == win.comm.rank:
            yield from _local_gacc(self.cpu, win, result, disp, data, op, dt)
            return
        yield from self._op(win, t, {"k": "gacc", "off": disp, "op": op,
                                     "dt": dt}, data, result)

    def fetch_and_op(self, win: Window, value: int, t: int, disp: int,
                     op: str) -> Generator:
        if op not in _RMW_OF:
            raise RmaError(
                f"fetch_and_op supports {sorted(_RMW_OF)}, not {op!r}")
        return (yield from self._rmw(win, op, value, None, t, disp))

    def compare_and_swap(self, win: Window, value: int, compare: int, t: int,
                         disp: int) -> Generator:
        return (yield from self._rmw(win, "cas", value, compare, t, disp))

    def _rmw(self, win: Window, op: str, value: int, compare: Optional[int],
             t: int, disp: int) -> Generator:
        self.metrics.counter("rma.rmw").incr()
        self.stats.trace("rma", "rmw", win=win.name, tgt=t, op=op)
        if t == win.comm.rank:
            return _local_rmw(win, op, value, compare, disp)
        rbuf = bytearray(8)
        rreq = yield from self._op(
            win, t, {"k": "rmw", "op": op, "off": disp, "val": value,
                     "cmp": compare}, b"", rbuf)
        yield from win._comm.wait(rreq)
        return int.from_bytes(rbuf, "little", signed=True)

    def rput(self, win: Window, buf, t: int, disp: int) -> Generator:
        data = as_bytes(buf)
        self.metrics.counter("rma.put").incr()
        self.stats.trace("rma", "rput", win=win.name, tgt=t, bytes=len(data))
        if t == win.comm.rank:
            yield from _local_put(self.cpu, win, disp, data, None, 1)
            req = Request(self.env, "rma")
            req.complete(count=len(data))
            return req
        rreq = yield from self._op(win, t, {"k": "put", "off": disp}, data,
                                   bytearray(0))
        return rreq

    def rget(self, win: Window, buf, t: int, disp: int) -> Generator:
        n = len(as_writable(buf))
        self.metrics.counter("rma.get").incr()
        self.stats.trace("rma", "rget", win=win.name, tgt=t, bytes=n)
        if t == win.comm.rank:
            yield from _local_get(self.cpu, win, buf, disp, n, None, 1)
            req = Request(self.env, "rma")
            req.complete(count=n)
            return req
        rreq = yield from self._op(win, t, {"k": "get", "off": disp, "n": n},
                                   b"", buf)
        return rreq

    # ------------------------------------------------------ synchronization
    def fence(self, win: Window) -> Generator:
        self.metrics.counter("rma.fence").incr()
        epoch = win.fence_epoch
        self.stats.trace("rma", "fence_enter", win=win.name, epoch=epoch)
        # every ack in hand => every op of mine is applied at its target;
        # the barrier then makes that true for all ranks at once
        pending, win._pending = win._pending, []
        win._pt_pending.clear()
        yield from win._comm.waitall(pending)
        yield from win._comm.barrier()
        win.fence_epoch += 1
        self.stats.trace("rma", "fence_exit", win=win.name, epoch=epoch)

    def post(self, win: Window, ranks: list[int]) -> Generator:
        self.metrics.counter("rma.post").incr()
        self.stats.trace("rma", "post", win=win.name, origins=len(ranks))
        win.exposure_origins = set(ranks)
        me = win.comm.rank
        for r in ranks:
            if r == me:
                win.post_tokens[me] = win.post_tokens.get(me, 0) + 1
                win._wake()
            else:
                yield from win._comm.send(b"", r, _POST_TAG)

    def start(self, win: Window, ranks: list[int]) -> Generator:
        self.stats.trace("rma", "start", win=win.name, targets=len(ranks))
        win.access_targets = set(ranks)
        me = win.comm.rank
        for r in sorted(ranks):
            if r == me:
                yield from self.backend.wait_until(
                    "user", lambda: win.post_tokens.get(me, 0) > 0,
                    win.sync_event)
                win.post_tokens[me] -= 1
            else:
                yield from win._comm.recv(bytearray(0), source=r,
                                          tag=_POST_TAG)

    def complete(self, win: Window) -> Generator:
        pending, win._pending = win._pending, []
        win._pt_pending.clear()
        yield from win._comm.waitall(pending)
        me = win.comm.rank
        self.stats.trace("rma", "complete", win=win.name,
                         targets=len(win.access_targets))
        for t in sorted(win.access_targets):
            if t == me:
                win.complete_cums.setdefault(me, deque()).append(0)
                win._wake()
            else:
                yield from win._comm.send(b"", t, _COMPLETE_TAG)
        win.access_targets = set()

    def wait(self, win: Window) -> Generator:
        me = win.comm.rank
        for o in sorted(win.exposure_origins):
            if o == me:
                yield from self.backend.wait_until(
                    "user", lambda: win.complete_cums.get(me), win.sync_event)
                win.complete_cums[me].popleft()
            else:
                yield from win._comm.recv(bytearray(0), source=o,
                                          tag=_COMPLETE_TAG)
        win.exposure_origins = set()
        self.stats.trace("rma", "wait_done", win=win.name)

    def lock(self, win: Window, t: int, exclusive: bool) -> Generator:
        if t in win.passive:
            raise RmaError(f"target {t} already locked by this origin")
        self.metrics.counter("rma.lock").incr()
        lid = f"{self.backend.task_id}:{next(self._lock_ids)}"
        self.stats.trace("rma", "lock", win=win.name, tgt=t, lid=lid,
                         excl=exclusive)
        if t == win.comm.rank:
            if not win.ledger.try_acquire(lid, exclusive):
                win.ledger.enqueue(lid, exclusive, ("local",))
                yield from self.backend.wait_until(
                    "user", lambda: lid in win._granted, win.sync_event)
                win._granted.discard(lid)
        else:
            rreq = yield from self._op(
                win, t, {"k": "lock", "lid": lid, "x": exclusive}, b"",
                bytearray(0))
            yield from win._comm.wait(rreq)  # the grant
        win.passive[t] = lid

    def flush(self, win: Window, t: int) -> Generator:
        """MPI_Win_flush: every ack in hand ⇒ every op applied/served."""
        if t not in win.passive:
            raise RmaError(f"flush({t}) outside a passive epoch")
        self.stats.trace("rma", "flush", win=win.name, tgt=t)
        yield from win._comm.waitall(win._pt_pending.pop(t, []))

    def unlock(self, win: Window, t: int) -> Generator:
        lid = win.passive.get(t)
        if lid is None:
            raise RmaError(f"target {t} is not locked by this origin")
        self.stats.trace("rma", "unlock", win=win.name, tgt=t, lid=lid)
        if t == win.comm.rank:
            grants = win.ledger.release(lid)
            yield from self._route_grants(win, grants)
        else:
            # flush: every op of this epoch acked (= applied) at target
            yield from win._comm.waitall(win._pt_pending.pop(t, []))
            rreq = yield from self._op(win, t, {"k": "unlock", "lid": lid},
                                       b"", bytearray(0))
            yield from win._comm.wait(rreq)
        del win.passive[t]

    def _route_grants(self, win: Window, grants) -> Generator:
        for lid2, _excl2, ref in grants:
            if ref[0] == "local":
                win._granted.add(lid2)
                win._wake()
            else:
                yield from win._comm.send(b"", ref[1],
                                          _REPLY_BASE + ref[2])

    def free(self, win: Window) -> Generator:
        yield from self.fence(win)
        win._stop = True
        evs, win._stop_evs = win._stop_evs, []
        for ev in evs:
            if not ev.triggered:
                ev.succeed()
        yield win._server  # join the window server
        del self._windows[win.name]
        self.stats.trace("rma", "win_free", win=win.name)

    # ------------------------------------------------------ window server
    def _server_loop(self, win: Window) -> Generator:
        """The target-side progress engine: serve requests until freed."""
        comm = win._comm
        be = self.backend
        buf = bytearray(len(win.mem) + 8192)
        while True:
            req = yield from comm.irecv(buf, ANY_SOURCE, _REQ_TAG)
            while not (req.done or req.needs_finalize):
                if win._stop:
                    removed = yield from comm.cancel(req)
                    if removed:
                        return
                    break  # matched mid-cancel: serve it out
                progressed = yield from be.progress("user")
                if req.done or req.needs_finalize or progressed:
                    continue
                ev = self.env.event()
                win._stop_evs.append(ev)
                yield AnyOf(self.env, [be.wait_rx(), req.changed(), ev])
            status = yield from comm.wait(req)
            hdr, payload = _dec(memoryview(buf)[: status.count])
            yield from self._serve(win, status.source, hdr, payload)

    def _serve(self, win: Window, src: int, hdr: dict,
               payload: bytes) -> Generator:
        comm = win._comm
        mem = win.mem
        kind = hdr["k"]
        rtag = _REPLY_BASE + hdr["rid"]
        if kind == "put":
            yield from _local_put(self.cpu, win, hdr["off"], payload, None, 1)
            yield from comm.send(b"", src, rtag)
        elif kind == "sput":
            mem.rma_epoch_dirty()
            _StridedTarget(memoryview(mem), hdr["base"],
                           hdr["ranges"]).write(0, payload)
            yield from self.cpu.memcpy("user", len(payload))
            yield from comm.send(b"", src, rtag)
        elif kind == "get":
            off, n = hdr["off"], hdr["n"]
            data = bytes(memoryview(mem)[off : off + n])
            yield from self.cpu.memcpy("user", n)
            yield from comm.send(data, src, rtag)
        elif kind == "sget":
            base = hdr["base"]
            view = memoryview(mem)
            wire = b"".join(
                bytes(view[base + off : base + off + ln])
                for off, ln in hdr["ranges"])
            yield from self.cpu.memcpy("user", len(wire))
            yield from comm.send(wire, src, rtag)
        elif kind == "acc":
            yield from _local_acc(self.cpu, win, hdr["off"], payload,
                                  hdr["op"], hdr["dt"])
            yield from comm.send(b"", src, rtag)
        elif kind == "gacc":
            off = hdr["off"]
            old = bytes(memoryview(mem)[off : off + len(payload)])
            _apply_acc(mem, off, payload, hdr["op"], hdr["dt"])
            yield from self.cpu.memcpy("user", 2 * len(payload))
            yield from comm.send(old, src, rtag)
        elif kind == "rmw":
            old = _local_rmw(win, hdr["op"], hdr["val"], hdr["cmp"], hdr["off"])
            yield from comm.send(
                (old & _WORD_MASK).to_bytes(8, "little"), src, rtag)
        elif kind == "lock":
            if win.ledger.try_acquire(hdr["lid"], hdr["x"]):
                yield from comm.send(b"", src, rtag)
            else:
                win.ledger.enqueue(hdr["lid"], hdr["x"],
                                   ("remote", src, hdr["rid"]))
        elif kind == "unlock":
            grants = win.ledger.release(hdr["lid"])
            yield from self._route_grants(win, grants)
            yield from comm.send(b"", src, rtag)
        else:
            raise RmaError(f"window server got unknown request {kind!r}")

