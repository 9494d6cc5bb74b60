"""The benchmark's four workloads, built from a seed.

Each workload is a list of :class:`Cell` objects.  A cell is one
simulated job: ``build()`` constructs its cluster (timed as set-up) and
``run(state, tally)`` drives it through the public API (timed as the
run), checking every output.  All inputs -- message sizes, think times,
payload bytes and cluster seeds -- come from the workload seed, so one
seed always gives the same inputs and, the simulator being
deterministic, the same simulated times and counters.

An *op* is one checked outcome: a received message compared byte for
byte, a verified NAS kernel, an RMA epoch read back, a fault cell that
passed ``check_invariants``, or a paper-ordering check on the
workload's own results.  An op that cannot finish (its cluster
deadlocked) or whose output is wrong counts as failed; nothing is
retried, skipped or re-seeded.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro import SPCluster
from repro.bench.nas import KERNEL_ORDER, check_shape as nas_shape
from repro.cluster import DeadlockError, preset
from repro.faults import builtin_plan, check_invariants, quiesce, run_workload
from repro.nas.common import run_kernel

__all__ = ["Cell", "Tally", "WORKLOADS", "make_cells", "run_pass"]

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
PAIR = ("native", "lapi-enhanced")


@dataclass
class Tally:
    """Outcome of one pass over a workload's cells."""

    attempted: int = 0
    #: ops that failed: deadlocked, wrong bytes, unverified, violated
    failed: int = 0
    #: the subset of ``failed`` whose output was produced but wrong
    wrong: int = 0
    #: fabric packets delivered, summed over every cluster
    packets: int = 0
    #: the program's own counters, summed over every cluster
    counters: collections.Counter = field(default_factory=collections.Counter)
    #: (cell, simulated elapsed us) in run order
    sim_us: list = field(default_factory=list)
    #: what each wrong output or deadlock was
    problems: list = field(default_factory=list)
    #: per-cell results the paper-ordering checks compare
    results: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        """Count one checked op whose output was produced."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.problems.append(what)

    def deadlocked(self, name: str, exc: Exception, n_ops: int,
                   done: list = ()) -> None:
        """Count a deadlocked job: every op it had not finished failed.
        ``done`` holds the checks of the ops it did finish."""
        self.attempted += n_ops
        self.failed += n_ops - sum(done)
        self.wrong += len(done) - sum(done)
        self.problems.append(f"{name}: {exc}")

    def absorb(self, name: str, cluster, elapsed_us: float) -> None:
        """Fold one finished (or deadlocked) cluster into the tally."""
        snap = cluster.metrics_snapshot()
        self.counters.update(snap["cluster"]["counters"])
        self.counters.update(snap["aggregate"]["counters"])
        self.packets += cluster.fabric.delivered
        self.sim_us.append((name, elapsed_us))


@dataclass
class Cell:
    name: str
    build: Callable[[], Any]
    run: Callable[[Any, Tally], None]


def run_pass(cells: list[Cell], tally: Tally, clock, before_run=None,
             after_run=None) -> tuple[float, float]:
    """Build every cell, then run every cell; ``(build_s, run_s)``.

    ``before_run``/``after_run`` bracket the timed run phase (the traced
    run switches its profiler there).
    """
    t0 = clock()
    states = [cell.build() for cell in cells]
    t1 = clock()
    if before_run is not None:
        before_run()
    for cell, state in zip(cells, states):
        cell.run(state, tally)
    if after_run is not None:
        after_run()
    t2 = clock()
    return t1 - t0, t2 - t1


# ---------------------------------------------------------------- inputs
def _payload(gen: np.random.Generator, size: int) -> bytes:
    """Seeded payload with no zero byte, so a buffer left untouched
    (zero-filled) never compares equal to it."""
    return gen.integers(1, 256, size, dtype=np.uint8).tobytes()


def _log_sizes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` log-uniform sizes in ``[lo, hi]``, stratified (one per
    equal log-width band) and shuffled: the sizes change with the seed
    but their total, and so the work of a pass, barely does."""
    sizes = [int(round(lo * (hi / lo) ** ((i + rng.random()) / n)))
             for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _cluster_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _mpi_cell(name: str, build: Callable[[], SPCluster], program,
              n_ops: int, after: Optional[Callable] = None) -> Cell:
    """A cell running ``program(comm, rank, size, done)`` on all ranks.

    The program appends one bool per checked op to ``done``.  Ops it
    never reached -- because the cluster deadlocked -- count as failed.
    ``after(values, tally)`` consumes the ranks' return values.
    """

    def run(cluster: SPCluster, tally: Tally) -> None:
        done: list[bool] = []
        try:
            result = cluster.run(program, done)
        except DeadlockError as exc:
            tally.absorb(name, cluster, cluster.env.now)
            tally.deadlocked(name, exc, n_ops, done)
            return
        tally.absorb(name, cluster, result.elapsed_us)
        if len(done) != n_ops:
            raise RuntimeError(f"{name}: checked {len(done)} ops, "
                               f"planned {n_ops}")
        for i, ok in enumerate(done):
            tally.op(ok, f"{name}: op {i} read wrong bytes")
        if after is not None:
            after(result.values, tally)

    return Cell(name, build, run)


# ------------------------------------------------------- pingpong_small
def pingpong_small(seed: int, scale: float = 1.0) -> list[Cell]:
    """Polling ping-pong of eager messages on all four MPI stacks."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    n = max(2, int(240 * scale))
    sizes = _log_sizes(rng, n, 8, 4096)
    pairs = [(_payload(gen, s), _payload(gen, s)) for s in sizes]
    cseed = _cluster_seed(rng)

    def program(comm, rank, size, done):
        rtts = []
        yield from comm.barrier()
        for out, back in pairs:
            t0 = comm.env.now
            if rank == 0:
                yield from comm.send(out, dest=1)
                buf = bytearray(len(back))
                yield from comm.recv(buf, source=1)
                done.append(buf == back)
            else:
                buf = bytearray(len(out))
                yield from comm.recv(buf, source=0)
                done.append(buf == out)
                yield from comm.send(back, dest=0)
            rtts.append(comm.env.now - t0)
        return rtts

    cells = [
        _mpi_cell(f"pingpong/{stack}",
                  lambda stack=stack: SPCluster(2, stack=stack, seed=cseed),
                  program, 2 * n, _keep(stack))
        for stack in MPI_STACKS
    ]
    big = [i for i, s in enumerate(sizes) if s >= 1024]
    cells.append(_check_cell("pingpong/order", lambda r: _pingpong_order(r, big)))
    return cells


def _pingpong_order(results: dict, big: list[int]) -> list[str]:
    """Fig 11 / Table 2 ordering: the enhanced stack beats the threaded
    base stack on every size mix, and native from 1 KB up."""
    problems = []
    enh, base, nat = (results.get(s) for s in ("lapi-enhanced", "lapi-base",
                                               "native"))
    if enh is None or base is None or nat is None:
        return ["a stack deadlocked; ordering not checkable"]
    if not sum(enh) < sum(base):
        problems.append("lapi-enhanced not faster than lapi-base")
    if big and not sum(enh[i] for i in big) < sum(nat[i] for i in big):
        problems.append("lapi-enhanced not faster than native at >= 1 KB")
    return problems


def _keep(key):
    """An ``after`` hook filing rank 0's return value under ``key`` for
    the pass's ordering check."""

    def after(values, tally: Tally) -> None:
        tally.results[key] = values[0]

    return after


def _check_cell(name: str, check: Callable[[dict], list[str]]) -> Cell:
    """One op: a paper-ordering check over the pass's earlier results."""

    def run(_state, tally: Tally) -> None:
        problems = check(tally.results)
        tally.op(not problems, f"{name}: {'; '.join(problems)}")

    return Cell(name, lambda: None, run)


# ---------------------------------------------------------- stream_bulk
#: messages in flight per Isend/Irecv window
WINDOW = 4


def stream_bulk(seed: int, scale: float = 1.0) -> list[Cell]:
    """Windows of rendezvous Isend/Irecv, native vs lapi-enhanced."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    n_windows = max(1, int(5 * scale))
    sizes = _log_sizes(rng, WINDOW * n_windows, 64 * 1024, 1024 * 1024)
    payloads = [_payload(gen, s) for s in sizes]
    windows = [payloads[i:i + WINDOW] for i in range(0, len(payloads), WINDOW)]
    cseed = _cluster_seed(rng)

    def program(comm, rank, size, done):
        yield from comm.barrier()
        t0 = comm.env.now
        for window in windows:
            if rank == 1:
                bufs = [np.zeros(len(p), dtype=np.uint8) for p in window]
                reqs = []
                for buf in bufs:
                    reqs.append((yield from comm.irecv(buf, source=0)))
                yield from comm.barrier()
                yield from comm.waitall(reqs)
                for buf, p in zip(bufs, window):
                    done.append(buf.tobytes() == p)
                yield from comm.send(b"k", dest=0)
            else:
                yield from comm.barrier()
                reqs = []
                for p in window:
                    reqs.append((yield from comm.isend(p, dest=1)))
                yield from comm.waitall(reqs)
                yield from comm.recv(bytearray(1), source=1)
        return comm.env.now - t0

    cells = [
        _mpi_cell(f"stream/{stack}",
                  lambda stack=stack: SPCluster(2, stack=stack, seed=cseed),
                  program, len(payloads), _keep(stack))
        for stack in PAIR
    ]
    cells.append(_check_cell("stream/order", _stream_order))
    return cells


def _stream_order(results: dict) -> list[str]:
    """Fig 12: MPI-LAPI streams at least as fast as native (the curves
    converge at 1 MB, so the check allows the convergence band)."""
    nat, enh = results.get("native"), results.get("lapi-enhanced")
    if nat is None or enh is None:
        return ["a stack deadlocked; ordering not checkable"]
    if enh > nat * 1.05:
        return [f"lapi-enhanced streamed slower than native "
                f"({enh:.0f} vs {nat:.0f} us)"]
    return []


# --------------------------------------------------------------- nas_s4
def nas_s4(seed: int, scale: float = 1.0) -> list[Cell]:
    """The eight NAS class-S kernels on 4 nodes, native vs lapi-enhanced.

    ``scale`` below 1 keeps only the first kernels (smoke runs); the
    shape check needs all eight and is skipped then.
    """
    rng = random.Random(seed)
    kernels = KERNEL_ORDER[: max(1, round(len(KERNEL_ORDER) * min(scale, 1.0)))]
    cells = []
    for kernel in kernels:
        cseed = _cluster_seed(rng)
        for stack in PAIR:
            name = f"nas/{kernel}/{stack}"
            build = (lambda stack=stack, cseed=cseed:
                     preset("paper_4node", stack=stack, seed=cseed).build())
            cells.append(Cell(name, build, _nas_run(name, kernel, stack)))
    if len(kernels) == len(KERNEL_ORDER):
        cells.append(_check_cell("nas/order", _nas_order))
    return cells


def _nas_run(name: str, kernel: str, stack: str):
    def run(cluster: SPCluster, tally: Tally) -> None:
        try:
            result = run_kernel(kernel, cluster, cls="S")
        except DeadlockError as exc:
            tally.absorb(name, cluster, cluster.env.now)
            tally.deadlocked(name, exc, 1)
            return
        tally.absorb(name, cluster, result.elapsed_us)
        tally.op(all(o.verified for o in result.values),
                 f"{name}: verification failed")
        tally.results[(kernel, stack)] = result.elapsed_us

    return run


def _nas_order(results: dict) -> list[str]:
    """§6.2 via :func:`repro.bench.nas.check_shape`."""
    rows = []
    for k in KERNEL_ORDER:
        nat, enh = results.get((k, "native")), results.get((k, "lapi-enhanced"))
        if nat is None or enh is None:
            return [f"{k} deadlocked; ordering not checkable"]
        rows.append({"kernel": k.upper(), "native_us": nat, "mpi_lapi_us": enh,
                     "improvement_%": 100.0 * (nat - enh) / nat})
    return nas_shape(rows)


# -------------------------------------------------- interrupt_rma_lossy
THINK_EXCHANGES = 8
RMA_PUT_SPAN = 128


def interrupt_rma_lossy(seed: int, scale: float = 1.0) -> list[Cell]:
    """Interrupt-mode progress, one-sided epochs and fault recovery.

    Only cells that fail no op at the parent commit; the cells that hit
    known program defects form the ``known_defects`` workload instead.
    """
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    cells = _fig13_cells(rng, gen, max(2, int(24 * scale)))
    cells += _think_cells(rng, gen, max(1, int(96 * scale)), "native")
    cells += _rma_cells(rng, gen, max(1, int(6 * scale)),
                        [("native", True), ("lapi-enhanced", False)])
    cells += _fault_cells(rng, [("loss-burst", "streaming"),
                                ("reorder-storm", "streaming"),
                                ("loss-burst", "rma")])
    return cells


def known_defects(seed: int, scale: float = 1.0) -> list[Cell]:
    """The cells of ``interrupt_rma_lossy``'s kind that fail ops at the
    parent commit, kept runnable so the defects stay measured: the LAPI
    ``irecv`` race (think-then-receive on ``lapi-enhanced``), stale
    interrupt-mode RMA gets on ``lapi-enhanced``, and ``reorder-storm``
    on the campaign's ``rma`` workload.  Not a timed workload."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    cells = _think_cells(rng, gen, max(1, int(96 * scale)), "lapi-enhanced")
    cells += _rma_cells(rng, gen, max(1, int(6 * scale)),
                        [("lapi-enhanced", True)])
    cells += _fault_cells(rng, [("reorder-storm", "rma")])
    return cells


def _fig13_cells(rng, gen, n: int) -> list[Cell]:
    """Fig 13: the responder pre-posts every receive and spins on buffer
    memory, so data moves only through the interrupt path."""
    sizes = _log_sizes(rng, n, 8, 4096)
    pairs = [(_payload(gen, s), _payload(gen, s)) for s in sizes]
    cseed = _cluster_seed(rng)

    def program(comm, rank, size, done):
        cpu, poll_us = comm.backend.cpu, comm.backend.params.poll_check_us
        if rank == 1:
            bufs = [np.zeros(len(out), dtype=np.uint8) for out, _ in pairs]
            reqs = []
            for buf in bufs:
                reqs.append((yield from comm.irecv(buf, source=0)))
            yield from comm.barrier()
            for buf, req, (out, back) in zip(bufs, reqs, pairs):
                while buf[-1] == 0:  # payload bytes are never zero
                    yield from cpu.execute("user", poll_us)
                yield from comm.wait(req)
                done.append(buf.tobytes() == out)
                yield from comm.send(back, dest=0)
            return None
        yield from comm.barrier()
        t0 = comm.env.now
        for out, back in pairs:
            yield from comm.send(out, dest=1)
            buf = bytearray(len(back))
            yield from comm.recv(buf, source=1)
            done.append(buf == back)
        return comm.env.now - t0

    cells = [
        _mpi_cell(f"fig13/{stack}",
                  lambda stack=stack: preset("interrupt_mode", stack=stack,
                                             seed=cseed).build(),
                  program, 2 * n, _keep(("fig13", stack)))
        for stack in PAIR
    ]
    cells.append(_check_cell("fig13/order", _fig13_order))
    return cells


def _fig13_order(results: dict) -> list[str]:
    """Fig 13: MPI-LAPI wins interrupt-mode latency decisively."""
    nat, enh = results.get(("fig13", "native")), results.get(("fig13", "lapi-enhanced"))
    if nat is None or enh is None:
        return ["a stack deadlocked; ordering not checkable"]
    if nat / enh < 1.3:
        return [f"interrupt-mode speedup {nat / enh:.2f}x < 1.3x"]
    return []


def _think_cells(rng, gen, n_cells: int, stack: str) -> list[Cell]:
    """Rank 1 idles a seeded 0-60 us, then ``irecv`` + ``wait``: the
    message may land while ``irecv`` is charging its match cost."""
    cells = []
    for c in range(n_cells):
        plan = [(rng.uniform(0.0, 60.0), _payload(gen, s), _payload(gen, 8))
                for s in _log_sizes(rng, THINK_EXCHANGES, 8, 1024)]
        cseed = _cluster_seed(rng)

        def program(comm, rank, size, done, plan=plan):
            yield from comm.barrier()
            for think, out, back in plan:
                if rank == 0:
                    yield from comm.send(out, dest=1)
                    buf = bytearray(len(back))
                    yield from comm.recv(buf, source=1)
                    done.append(buf == back)
                else:
                    yield comm.env.timeout(think)
                    buf = bytearray(len(out))
                    req = yield from comm.irecv(buf, source=0)
                    yield from comm.wait(req)
                    done.append(buf == out)
                    yield from comm.send(back, dest=0)

        cells.append(_mpi_cell(
            f"think{c}/{stack}",
            lambda cseed=cseed: preset("interrupt_mode", stack=stack,
                                       seed=cseed).build(),
            program, 2 * THINK_EXCHANGES))
    return cells


def _rma_cells(rng, gen, n_epochs: int, variants) -> list[Cell]:
    """Fence and lock epochs on 3 nodes, one cell per ``(stack,
    interrupt_mode)`` in ``variants``.

    Fence epochs: every rank puts a seeded block into its right
    neighbour, then gets it back; both are checked.  Lock epochs: every
    rank accumulates seeded int64 vectors and bumps a counter word on
    rank 0 under an exclusive lock; rank 0 checks the sums.
    """
    nodes, acc_words = 3, 4
    acc_off = RMA_PUT_SPAN
    fop_off = acc_off + 8 * acc_words
    win_size = fop_off + 8
    epochs = []
    for _ in range(n_epochs):
        blocks = []
        for _r in range(nodes):
            length = rng.randint(8, 64)
            blocks.append((rng.randrange(RMA_PUT_SPAN - length + 1),
                           _payload(gen, length)))
        adds = [gen.integers(-1000, 1000, acc_words, dtype=np.int64)
                for _r in range(nodes)]
        epochs.append((blocks, adds))
    acc_expected = sum(sum(adds) for _b, adds in epochs).tobytes()
    fop_expected = (nodes * n_epochs).to_bytes(8, "little")
    cseed = _cluster_seed(rng)

    def program(comm, rank, size, done):
        win = yield from comm.win_create(win_size)
        yield from win.fence()
        right, left = (rank + 1) % size, (rank - 1) % size
        for blocks, adds in epochs:
            off, data = blocks[rank]
            yield from win.put(data, right, off)
            yield from win.fence()
            loff, ldata = blocks[left]
            done.append(bytes(win.mem[loff:loff + len(ldata)]) == ldata)
            back = bytearray(len(data))
            yield from win.get(back, right, off)
            yield from win.fence()
            done.append(back == data)
            yield from win.lock(0, exclusive=True)
            yield from win.accumulate(adds[rank], 0, acc_off, op="sum")
            yield from win.fetch_and_op(1, 0, fop_off, op="sum")
            yield from win.unlock(0)
        yield from comm.barrier()
        yield from win.fence()
        if rank == 0:
            done.append(bytes(win.mem[acc_off:fop_off]) == acc_expected)
            done.append(bytes(win.mem[fop_off:win_size]) == fop_expected)
        yield from win.free()

    n_ops = 2 * nodes * n_epochs + 2
    return [
        _mpi_cell(f"rma/{stack}/{'interrupt' if interrupt else 'polling'}",
                  lambda stack=stack, interrupt=interrupt: SPCluster(
                      nodes, stack=stack, seed=cseed,
                      interrupt_mode=interrupt),
                  program, n_ops)
        for stack, interrupt in variants
    ]


def _fault_cells(rng, combos) -> list[Cell]:
    """Fault campaign cells, one per ``(plan, workload)`` in ``combos``:
    the faulted run must quiesce, pass ``check_invariants`` and match
    its fault-free reference byte for byte.  ``run_workload`` builds its
    own clusters, so their construction is timed with the run."""
    cells = []
    for plan, workload in combos:
        name = f"fault/{plan}/{workload}"
        cells.append(Cell(name, lambda: None,
                          _fault_run(name, plan, workload,
                                     _cluster_seed(rng))))
    return cells


def _fault_run(name: str, plan: str, workload: str, cseed: int):
    def run(_state, tally: Tally) -> None:
        try:
            ref_cluster, ref, reference = run_workload(workload, seed=cseed)
            tally.absorb(name + "/reference", ref_cluster, ref.elapsed_us)
            cluster, result, payload = run_workload(
                workload, plan=builtin_plan(plan), seed=cseed)
        except DeadlockError as exc:
            tally.deadlocked(name, exc, 1)
            return
        if quiesce(cluster) is None:
            violations = ["transport failed to quiesce"]
        else:
            violations = check_invariants(cluster, payload, reference)
        tally.absorb(name, cluster, cluster.env.now)
        tally.op(not violations, f"{name}: {'; '.join(violations)}")

    return run


WORKLOADS: dict[str, Callable[..., list[Cell]]] = {
    "pingpong_small": pingpong_small,
    "stream_bulk": stream_bulk,
    "nas_s4": nas_s4,
    "interrupt_rma_lossy": interrupt_rma_lossy,
    "known_defects": known_defects,
}


def make_cells(workload: str, seed: int, scale: float = 1.0) -> list[Cell]:
    try:
        factory = WORKLOADS[workload]
    except KeyError:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {sorted(WORKLOADS)}") from None
    return factory(seed, scale)
