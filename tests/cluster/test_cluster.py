"""Cluster assembly, determinism, deadlock detection, stats plumbing."""

import numpy as np
import pytest

from repro import MachineParams, SPCluster, STACKS
from repro.sim import SimulationError


def test_unknown_stack_rejected():
    with pytest.raises(ValueError, match="unknown stack"):
        SPCluster(2, stack="carrier-pigeon")


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        SPCluster(0)


def test_all_stacks_construct():
    for stack in STACKS:
        SPCluster(2, stack=stack)


def test_params_validated_at_build():
    with pytest.raises(ValueError):
        SPCluster(2, params=MachineParams(route_count=0))


def test_run_returns_per_rank_values_and_times():
    cl = SPCluster(3)

    def program(comm, rank, size):
        yield comm.env.timeout(rank * 10.0)
        return rank * 2

    res = cl.run(program)
    assert res.values == [0, 2, 4]
    assert [r.rank for r in res.ranks] == [0, 1, 2]
    assert res.ranks[2].finished_at >= 20.0
    assert res.elapsed_us >= 20.0


def test_program_args_and_kwargs_forwarded():
    cl = SPCluster(2)

    def program(comm, rank, size, a, b=0):
        yield comm.env.timeout(1.0)
        return (a, b, size)

    res = cl.run(program, 7, b=9)
    assert res.values == [(7, 9, 2), (7, 9, 2)]


def test_deadlock_surfaces_as_simulation_error():
    cl = SPCluster(2)

    def program(comm, rank, size):
        # both ranks receive, nobody sends
        buf = bytearray(4)
        yield from comm.recv(buf, source=1 - rank)

    with pytest.raises(SimulationError, match="deadlock"):
        cl.run(program)


def test_determinism_same_seed_same_timings():
    def program(comm, rank, size):
        buf = np.zeros(2048, dtype=np.uint8)
        if rank == 0:
            yield from comm.send(buf, dest=1)
            yield from comm.recv(buf, source=1)
        else:
            yield from comm.recv(buf, source=0)
            yield from comm.send(buf, dest=0)
        return comm.env.now

    t1 = SPCluster(2, seed=42).run(program).values
    t2 = SPCluster(2, seed=42).run(program).values
    t3 = SPCluster(2, seed=43).run(program).values
    assert t1 == t2
    assert t1 != t3  # jitter differs with the seed


def test_program_exception_propagates():
    cl = SPCluster(2)

    def program(comm, rank, size):
        yield comm.env.timeout(1.0)
        if rank == 1:
            raise ValueError("rank 1 exploded")

    with pytest.raises(ValueError, match="rank 1 exploded"):
        cl.run(program)


def test_two_programs_sequentially_on_same_cluster():
    cl = SPCluster(2)

    def program(comm, rank, size):
        yield from comm.barrier()
        return comm.env.now

    r1 = cl.run(program)
    r2 = cl.run(program)
    assert r2.ranks[0].finished_at > r1.ranks[0].finished_at


def test_stats_aggregation_sums_nodes():
    cl = SPCluster(2)

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
        else:
            buf = bytearray(100)
            yield from comm.recv(buf, source=0)

    res = cl.run(program)
    per_node = [s.packets_sent.value for s in cl.node_stats]
    assert res.stats.packets_sent.value == sum(per_node)


def test_raw_lapi_stack_has_no_comms():
    cl = SPCluster(2, stack="raw-lapi")
    assert cl.comms == [None, None]
    assert all(l is not None for l in cl.lapis)


def test_single_node_cluster_runs_local_program():
    cl = SPCluster(1)

    def program(comm, rank, size):
        yield from comm.barrier()  # size-1 barrier is a no-op
        out = np.zeros(1)
        yield from comm.allreduce(np.ones(1), out)
        return float(out[0])

    assert cl.run(program).values == [1.0]
