"""The event-driven ``Cpu`` against the generator model it replaced.

``ReferenceCpu`` below is the CPU model written the direct way, kept as
the specification: a charge acquires a core (parking on a pooled event
the releaser succeeds with the core), computes its switch penalty and
fault slowdown in the caller, yields one timeout and releases the core
in a ``finally`` clause on the caller's resume.  It is verbatim apart
from its two counter writes, which go through ``Counter.incr``.

:class:`repro.machine.Cpu` must reproduce it exactly while resuming the
caller once per charge: both models are driven by the same
hypothesis-drawn programs (several processes charging on ``user``,
``cmpl`` and ``irq0``; costs including 0 and negative values; gaps
including simultaneous arrivals; 1-4 cores; with and without a
node-slowdown fault stub), and every charge's start and end instant,
the order callers resume in, ``busy_us``, the switch and interrupt
counters, the ``cpu`` trace records and the kernel's popped-event count
must be equal.
"""

from collections import deque
from typing import Generator, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import Cpu, MachineParams, NodeStats
from repro.machine.cpu import INTERRUPT_CONTEXT
from repro.obs import MetricsRegistry
from repro.sim import Environment, Event
from repro.trace import Tracer

THREADS = ("user", "cmpl", "irq0")


class _RefCore:
    __slots__ = ("index", "busy", "running", "last_thread", "preempted_thread")

    def __init__(self, index: int):
        self.index = index
        self.busy = False
        self.running: Optional[str] = None
        self.last_thread: Optional[str] = None
        self.preempted_thread: Optional[str] = None


class ReferenceCpu:
    """The generator ``Cpu``: acquire, resume, timeout, resume, release."""

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
        self._cores = [_RefCore(i) for i in range(cores)]
        self._waiters: deque[Event] = deque()
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

        Generator: ``yield from cpu.execute("user", 1.5)``.
        """
        core = self._try_acquire(thread)
        if core is None:
            ev = self.env.auto_event()
            self._waiters.append((ev, thread))
            core = yield ev  # hand-off: the releaser granted us this core
        try:
            switch = self._switch_penalty(core, thread)
            if self.faults is not None:
                cost_us = cost_us * self.faults.slowdown(self.env.now)
            total = switch + max(0.0, cost_us)
            if total > 0.0:
                yield self.env.auto_timeout(total)
            self.busy_us += total
        finally:
            core.last_thread = thread
            self._release(core)

    def memcpy(self, thread: str, nbytes: int) -> Generator:
        """Charge a host memory copy of ``nbytes`` and record it."""
        self.stats.record_copy(nbytes)
        yield from self.execute(thread, self.params.copy_cost(nbytes))

    # ------------------------------------------------------------------
    def _try_acquire(self, thread: str) -> Optional[_RefCore]:
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
            if any(t not in running_now for _ev, t in self._waiters):
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

    def _release(self, core: _RefCore) -> None:
        core.busy = False
        core.running = None
        # hand the core to the first waiter whose thread is not already
        # running elsewhere (FIFO among the eligible)
        running_now = {c.running for c in self._cores if c.busy}
        for i, (ev, thread) in enumerate(self._waiters):
            if thread not in running_now:
                del self._waiters[i]
                core.busy = True
                core.running = thread
                ev.succeed(core)
                return

    def _switch_penalty(self, core: _RefCore, thread: str) -> float:
        """Penalty for running ``thread`` on ``core`` next."""
        if thread.startswith(INTERRUPT_CONTEXT):
            if core.last_thread == thread:
                # Same interrupt context continuing; entry already charged.
                return 0.0
            if core.last_thread is not None and not core.last_thread.startswith(
                INTERRUPT_CONTEXT
            ):
                core.preempted_thread = core.last_thread
            self.stats.interrupts.incr()
            return self.params.interrupt_overhead_us

        if core.last_thread == thread:
            return 0.0
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


class SlowdownStub:
    """A node-slowdown fault window: ``factor`` on ``[start, end)``."""

    def __init__(self, start: float, end: float, factor: float):
        self.start, self.end, self.factor = start, end, factor

    def slowdown(self, now: float) -> float:
        return self.factor if self.start <= now < self.end else 1.0


def run_model(model, programs, cores, params, fault):
    """Run ``programs[i] = (start_us, [(gap_us, thread, cost_us), ...])``
    as one process each on ``model``; return everything observable."""
    metrics = MetricsRegistry()
    env = Environment(metrics=metrics)
    stats = NodeStats()
    stats.node_id, stats.tracer = 0, Tracer(env)
    cpu = model(env, params, stats, cores=cores)
    cpu.faults = fault
    charges = []

    def proc(pid, start, steps):
        yield env.timeout(start)
        for k, (gap, thread, cost) in enumerate(steps):
            if gap:
                yield env.timeout(gap)
            begin = env.now
            yield from cpu.execute(thread, cost)
            charges.append((pid, k, begin, env.now))

    for pid, (start, steps) in enumerate(programs):
        env.process(proc(pid, start, steps))
    env.run()
    counters = metrics.snapshot()["counters"]
    return {
        "charges": charges,
        "now": env.now,
        "busy_us": cpu.busy_us,
        "ctx_switches": stats.ctx_switches.value,
        "interrupts": stats.interrupts.value,
        "trace": [(r.time, r.layer, r.event, r.fields)
                  for r in stats.tracer.records if r.layer == "cpu"],
        "events_popped": counters["sim.events_popped"],
    }, counters["sim.process_switches"]


time_us = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
                    st.floats(0.0, 10.0))
cost_us = st.one_of(st.sampled_from([0.0, 0.0, -1.0, 0.3, 1.0, 7.0]),
                    st.floats(-2.0, 10.0))
program = st.tuples(
    st.sampled_from([0.0, 0.0, 1.0, 3.7]),
    st.lists(st.tuples(time_us, st.sampled_from(THREADS), cost_us),
             min_size=1, max_size=6))
fault = st.one_of(
    st.none(),
    st.builds(SlowdownStub, st.floats(0.0, 10.0), st.floats(0.0, 30.0),
              st.sampled_from([1.5, 2.0, 3.0, 10.0])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs=st.lists(program, min_size=1, max_size=5),
       cores=st.integers(1, 4),
       ctx_switch_us=st.sampled_from([0.0, 0.7, 24.0]),
       interrupt_overhead_us=st.sampled_from([0.0, 3.0]),
       fault=fault)
def test_event_driven_cpu_matches_reference(programs, cores, ctx_switch_us,
                                            interrupt_overhead_us, fault):
    params = MachineParams(ctx_switch_us=ctx_switch_us,
                           interrupt_overhead_us=interrupt_overhead_us)
    ref, ref_switches = run_model(ReferenceCpu, programs, cores, params, fault)
    got, switches = run_model(Cpu, programs, cores, params, fault)
    assert got == ref
    # a contended grant no longer resumes the waiting caller
    assert switches <= ref_switches


def test_contended_charge_resumes_its_caller_once():
    """Two charges racing for one core: the loser is resumed only when
    its charge ends, not also when the core is granted to it."""
    programs = [(0.0, [(0.0, "user", 2.0)]), (0.0, [(0.0, "cmpl", 3.0)])]
    params = MachineParams(ctx_switch_us=1.0)
    ref, ref_switches = run_model(ReferenceCpu, programs, 1, params, None)
    got, switches = run_model(Cpu, programs, 1, params, None)
    assert got == ref
    assert got["charges"] == [(0, 0, 0.0, 2.0), (1, 0, 0.0, 6.0)]
    assert switches == ref_switches - 1
