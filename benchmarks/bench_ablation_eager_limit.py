"""Ablation: the eager limit (rendezvous switch-over).

The paper sets 4096 B by default and notes users trade early-arrival
buffering against rendezvous round trips.  Latency for a fixed message
size should jump when the limit drops below the message (rendezvous
adds a control round trip), and early-arrival buffer usage should grow
with the limit when receives are posted late.
"""

import pytest

from repro import MachineParams, SPCluster
from repro.bench.harness import pingpong_us

LIMITS = [256, 1024, 4096, 16384]


@pytest.mark.parametrize("limit", LIMITS)
def test_latency_2kb_message(benchmark, limit):
    t = benchmark.pedantic(
        lambda: pingpong_us(
            "lapi-enhanced", 2048, reps=6, params=MachineParams(eager_limit=limit)
        ),
        rounds=1, iterations=1,
    )
    assert t > 0


def test_rendezvous_roundtrip_penalty(benchmark):
    def measure():
        eager = pingpong_us("lapi-enhanced", 2048, reps=6,
                            params=MachineParams(eager_limit=4096))
        rndv = pingpong_us("lapi-enhanced", 2048, reps=6,
                           params=MachineParams(eager_limit=1024))
        return eager, rndv

    eager, rndv = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert rndv > eager + 10.0, "rendezvous must pay a control round trip"


def test_eager_limit_governs_ea_buffering(benchmark):
    """Late-posted receives: eager messages land in the EA buffer,
    rendezvous ones wait at the sender."""

    def run_with(limit):
        cluster = SPCluster(2, stack="lapi-enhanced",
                            params=MachineParams(eager_limit=limit))

        def program(comm, rank, size):
            if rank == 0:
                req = yield from comm.isend(bytes(2048), dest=1)
                yield from comm.wait(req)
                return None
            yield from comm.probe(source=0)  # drive progress, no recv posted
            buf = bytearray(2048)
            yield from comm.recv(buf, source=0)
            return None

        return cluster.run(program).stats

    def measure():
        return run_with(4096), run_with(256)

    eager_stats, rndv_stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert eager_stats.early_arrivals.value >= 1
    assert eager_stats.bytes_copied.value >= 2048  # EA staging copy happened
    assert rndv_stats.rendezvous_started.value == 1
