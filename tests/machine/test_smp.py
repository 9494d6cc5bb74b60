"""Multi-core CPU scheduling (SMP nodes)."""

import pytest

from repro.machine import Cpu, MachineParams, NodeStats
from repro.sim import Environment


def make(cores, **overrides):
    env = Environment()
    params = MachineParams(**overrides)
    stats = NodeStats()
    return env, Cpu(env, params, stats, cores=cores), stats


def test_zero_cores_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Cpu(env, MachineParams(), NodeStats(), cores=0)


def test_two_threads_run_concurrently_on_two_cores():
    env, cpu, stats = make(2)
    done = {}

    def worker(tag):
        yield from cpu.execute(tag, 10.0)
        done[tag] = env.now

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert done == {"a": 10.0, "b": 10.0}  # no serialisation


def test_three_threads_on_two_cores_serialise_one():
    env, cpu, stats = make(2, ctx_switch_us=0.0)
    done = {}

    def worker(tag):
        yield from cpu.execute(tag, 10.0)
        done[tag] = env.now

    for t in ("a", "b", "c"):
        env.process(worker(t))
    env.run()
    assert sorted(done.values()) == [10.0, 10.0, 20.0]


def test_affinity_avoids_switch_charge():
    env, cpu, stats = make(2, ctx_switch_us=100.0)

    def seq():
        yield from cpu.execute("a", 1.0)
        yield from cpu.execute("b", 1.0)  # lands on the other core
        yield from cpu.execute("a", 1.0)  # back on core 0: no switch
        yield from cpu.execute("b", 1.0)  # back on core 1: no switch

    p = env.process(seq())
    env.run(until=p)
    assert stats.ctx_switches.value == 0
    assert env.now == pytest.approx(4.0)


def test_single_core_still_charges_switches():
    env, cpu, stats = make(1, ctx_switch_us=24.0)

    def seq():
        yield from cpu.execute("a", 1.0)
        yield from cpu.execute("b", 1.0)

    p = env.process(seq())
    env.run(until=p)
    assert stats.ctx_switches.value == 1


def test_smp_shrinks_base_variant_penalty():
    """On a 2-way SMP the completion thread gets its own core, so the
    MPI-LAPI Base latency approaches Enhanced — the architectural reason
    the paper's enhanced-LAPI fix matters most on uniprocessor nodes."""
    from repro.bench.harness import pingpong_us

    base_up = pingpong_us("lapi-base", 64, reps=6,
                          params=MachineParams(cpus_per_node=1))
    base_smp = pingpong_us("lapi-base", 64, reps=6,
                           params=MachineParams(cpus_per_node=2))
    enhanced = pingpong_us("lapi-enhanced", 64, reps=6)
    assert base_smp < base_up
    gap_up = base_up - enhanced
    gap_smp = base_smp - enhanced
    assert gap_smp < 0.5 * gap_up


def test_enhanced_unaffected_by_smp():
    from repro.bench.harness import pingpong_us

    e1 = pingpong_us("lapi-enhanced", 64, reps=6,
                     params=MachineParams(cpus_per_node=1))
    e2 = pingpong_us("lapi-enhanced", 64, reps=6,
                     params=MachineParams(cpus_per_node=4))
    assert abs(e1 - e2) < 3.0
