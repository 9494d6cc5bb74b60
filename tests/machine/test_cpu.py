"""Unit tests for the CPU scheduler and its switch accounting."""

import pytest

from repro.machine import Cpu, MachineParams, NodeStats
from repro.sim import Environment


def make_cpu(**overrides):
    env = Environment()
    params = MachineParams(**overrides)
    stats = NodeStats()
    return env, Cpu(env, params, stats), stats


def test_single_thread_no_switch_cost():
    env, cpu, stats = make_cpu(ctx_switch_us=100.0)

    def proc():
        yield from cpu.execute("user", 5.0)
        yield from cpu.execute("user", 5.0)

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(10.0)
    assert stats.ctx_switches.value == 0


def test_thread_change_charges_ctx_switch():
    env, cpu, stats = make_cpu(ctx_switch_us=24.0)

    def proc():
        yield from cpu.execute("user", 1.0)
        yield from cpu.execute("cmpl", 1.0)
        yield from cpu.execute("user", 1.0)

    p = env.process(proc())
    env.run(until=p)
    # first execute: no previous thread; then two switches
    assert env.now == pytest.approx(3.0 + 2 * 24.0)
    assert stats.ctx_switches.value == 2


def test_interrupt_charges_overhead_not_switch():
    env, cpu, stats = make_cpu(ctx_switch_us=50.0, interrupt_overhead_us=7.0)

    def proc():
        yield from cpu.execute("user", 1.0)
        yield from cpu.execute("irq0", 2.0)
        yield from cpu.execute("user", 1.0)

    p = env.process(proc())
    env.run(until=p)
    # 1 + (7 + 2) + 1 : the return to the preempted thread is free
    assert env.now == pytest.approx(11.0)
    assert stats.ctx_switches.value == 0
    assert stats.interrupts.value == 1


def test_consecutive_irq_sections_charged_once():
    env, cpu, stats = make_cpu(interrupt_overhead_us=9.0)

    def proc():
        yield from cpu.execute("irq0", 1.0)
        yield from cpu.execute("irq0", 1.0)

    p = env.process(proc())
    env.run(until=p)
    assert stats.interrupts.value == 1
    assert env.now == pytest.approx(9.0 + 2.0)


def test_mutual_exclusion_serialises_contexts():
    env, cpu, stats = make_cpu(ctx_switch_us=0.0)
    order = []

    def worker(tag, cost):
        yield from cpu.execute(tag, cost)
        order.append((tag, env.now))

    env.process(worker("a", 10.0))
    env.process(worker("b", 5.0))
    env.run()
    assert order == [("a", 10.0), ("b", 15.0)]


def test_memcpy_records_stats_and_charges_time():
    env, cpu, stats = make_cpu(copy_bandwidth_MBps=100.0, copy_setup_us=0.0)

    def proc():
        yield from cpu.memcpy("user", 1000)

    p = env.process(proc())
    env.run(until=p)
    assert stats.copies.value == 1
    assert stats.bytes_copied.value == 1000
    assert env.now == pytest.approx(10.0)


def test_busy_time_accumulates():
    env, cpu, stats = make_cpu(ctx_switch_us=0.0)

    def proc():
        yield from cpu.execute("user", 3.0)
        yield env.timeout(100.0)  # idle
        yield from cpu.execute("user", 4.0)

    p = env.process(proc())
    env.run(until=p)
    assert cpu.busy_us == pytest.approx(7.0)


def test_zero_cost_execute_is_legal():
    env, cpu, stats = make_cpu()

    def proc():
        yield from cpu.execute("user", 0.0)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 0.0
