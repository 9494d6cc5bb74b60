"""Per-node CPU(s) with thread-switch accounting.

A node's software contexts (the user/MPI thread, the LAPI completion-
handler thread, interrupt handlers) share the node's core(s).  Every
timed software action runs inside :meth:`Cpu.execute`, which

1. acquires a core (preferring the core the thread last ran on),
2. charges a context-switch penalty if that core was last running a
   *different* thread (the paper's §5 effect),
3. advances simulated time by the service cost, and
4. releases the core.

Interrupt contexts are special-cased: entering one charges the
interrupt overhead instead of a thread context switch, and the
interrupted thread resumes without a switch charge (the hardware did
the save/restore, folded into ``interrupt_overhead_us``).

Uniprocessor SP nodes use ``cores=1`` (the default); the TBMX systems
in the paper were 4-way SMPs, which ``MachineParams.cpus_per_node``
models — on an SMP the completion-handler thread can run on its own
core, which is exactly why the Base variant hurts less there (see
``benchmarks/bench_ablation_smp.py``).

Scheduling is non-preemptive per core and FIFO-fair across waiters.

A charge is one pooled kernel event due when it ends, and the only
process resume is the caller's own at that end.  The event's first
callback frees the core (or hands it to the next waiter) before the
caller resumes.  A waiter is granted the core in a delay-0 callback that
starts its charge without resuming it.  See ``docs/PERFORMANCE.md``,
"CPU charges as one kernel event".
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.sim import Environment, Event

#: thread-name prefix that marks an interrupt context
INTERRUPT_CONTEXT = "irq"

__all__ = ["Cpu", "INTERRUPT_CONTEXT"]


class _Core:
    __slots__ = ("index", "busy", "running", "last_thread", "preempted_thread",
                 "charge_us")

    def __init__(self, index: int):
        self.index = index
        self.busy = False
        self.running: Optional[str] = None
        self.last_thread: Optional[str] = None
        self.preempted_thread: Optional[str] = None
        #: total of the charge running on this core (switch + cost)
        self.charge_us = 0.0


class Cpu:
    """The processor(s) shared by one node's software contexts."""

    def __init__(
        self,
        env: Environment,
        params: MachineParams,
        stats: NodeStats,
        name: str = "cpu",
        cores: int = 1,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.params = params
        self.stats = stats
        self.name = name
        self._cores = [_Core(i) for i in range(cores)]
        #: parked charges, FIFO: ``(end event, thread, cost_us)``
        self._waiters: deque[tuple[Event, str, float]] = deque()
        #: cumulative busy time across cores (utilisation statistic)
        self.busy_us: float = 0.0
        #: fault hook (:class:`repro.faults.FaultPoint`) for node-slowdown
        #: events; installed by the cluster, ``None`` otherwise
        self.faults = None

    @property
    def cores(self) -> int:
        return len(self._cores)

    # ------------------------------------------------------------------
    def execute(self, thread: str, cost_us: float) -> Generator:
        """Run ``cost_us`` of work attributed to ``thread``.

        Generator: ``yield from cpu.execute("user", 1.5)``.  The caller
        waits on one pooled event due when the charge ends; its first
        callback (:meth:`_done`) frees the core before the caller
        resumes.  A charge that has to wait for a core is started by
        :meth:`_grant` without resuming the caller, and a charge of zero
        total on a free core continues without yielding at all.
        """
        core = self._try_acquire(thread)
        if core is None:
            ev = self.env.auto_event()
            self._waiters.append((ev, thread, cost_us))
        elif self._charge(core, thread, cost_us) > 0.0:
            ev = self.env.auto_timeout(core.charge_us, core)
        else:
            core.last_thread = thread
            self._release(core)
            return
        ev.callbacks.append(self._done)
        yield ev

    def memcpy(self, thread: str, nbytes: int) -> Generator:
        """Charge a host memory copy of ``nbytes`` and record it."""
        self.stats.record_copy(nbytes)
        yield from self.execute(thread, self.params.copy_cost(nbytes))

    # ------------------------------------------------------------------
    def _charge(self, core: _Core, thread: str, cost_us: float) -> float:
        """Start ``thread``'s charge on ``core``; returns its total."""
        # the same thread (or interrupt context, whose entry is already
        # charged) continuing on its core costs nothing
        switch = (0.0 if core.last_thread == thread
                  else self._switch_penalty(core, thread))
        if self.faults is not None:
            cost_us = cost_us * self.faults.slowdown(self.env.now)
        core.charge_us = switch + max(0.0, cost_us)
        return core.charge_us

    def _done(self, ev: Event) -> None:
        """End of a charge (first callback of its event): free the core."""
        core = ev._value
        self.busy_us += core.charge_us
        core.last_thread = core.running
        self._release(core)

    def _grant(self, ev: Event) -> None:
        """A parked charge got ``core``: start it without a resume."""
        core, end, cost_us = ev._value
        if self._charge(core, core.running, cost_us) > 0.0:
            self.env.schedule(end, core.charge_us, core)
        else:
            # nothing to wait for: the caller continues in this slot
            self.env.fire(end, core)

    def _try_acquire(self, thread: str) -> Optional[_Core]:
        if len(self._cores) == 1:
            # Uniprocessor fast path (the paper's SP nodes, and by far the
            # common configuration): a busy core blocks everyone, a free
            # core with waiters means the waiters go first (none of them
            # can be blocked by a same-name conflict when nothing runs).
            core = self._cores[0]
            if core.busy or self._waiters:
                return None
            core.busy = True
            core.running = thread
            return core
        # FIFO fairness: newcomers queue behind *eligible* waiters (this
        # is what prevents a polling loop from starving handler contexts;
        # waiters blocked only by a same-name conflict don't block others)
        if self._waiters:
            running_now = {c.running for c in self._cores if c.busy}
            if any(t not in running_now for _ev, t, _cost in self._waiters):
                return None
        # one OS thread cannot occupy two cores: same-named sections
        # (e.g. the user program and LAPI engine work attributed to the
        # user thread) serialise
        if any(c.busy and c.running == thread for c in self._cores):
            return None
        free = [c for c in self._cores if not c.busy]
        if not free:
            return None
        # affinity first (no switch), then a never-used core, then any
        chosen = None
        for c in free:
            if c.last_thread == thread:
                chosen = c
                break
        if chosen is None:
            for c in free:
                if c.last_thread is None:
                    chosen = c
                    break
        if chosen is None:
            chosen = free[0]
        chosen.busy = True
        chosen.running = thread
        return chosen

    def _release(self, core: _Core) -> None:
        core.busy = False
        core.running = None
        waiters = self._waiters
        if not waiters:
            return
        if len(self._cores) == 1:
            # nothing runs on a uniprocessor now: the first waiter goes
            ev, thread, cost_us = waiters.popleft()
        else:
            # hand the core to the first waiter whose thread is not
            # already running elsewhere (FIFO among the eligible)
            running_now = {c.running for c in self._cores if c.busy}
            for i, (ev, thread, cost_us) in enumerate(waiters):
                if thread not in running_now:
                    del waiters[i]
                    break
            else:
                return
        core.busy = True
        core.running = thread
        # granted in the next delay-0 slot, by a callback, not a resume
        self.env.call_later(0.0, self._grant, (core, ev, cost_us))

    def _switch_penalty(self, core: _Core, thread: str) -> float:
        """Penalty for running ``thread`` on ``core`` next, where it is
        not the thread ``core`` last ran."""
        if thread.startswith(INTERRUPT_CONTEXT):
            if core.last_thread is not None and not core.last_thread.startswith(
                INTERRUPT_CONTEXT
            ):
                core.preempted_thread = core.last_thread
            self.stats.interrupts.incr()
            return self.params.interrupt_overhead_us

        if core.preempted_thread == thread:
            # Returning from interrupt to the thread it preempted: the
            # restore cost is part of interrupt_overhead_us.
            core.preempted_thread = None
            return 0.0
        if core.last_thread is None:
            return 0.0
        self.stats.ctx_switches.incr()
        self.stats.trace("cpu", "ctx_switch", to=thread, frm=core.last_thread,
                         cost_us=self.params.ctx_switch_us)
        return self.params.ctx_switch_us
