"""Ablation: the native interrupt handler's hysteresis dwell (Fig 13).

Sweeping the dwell window shows interrupt-mode latency degrading
roughly linearly with it, and the dwell counter confirms the mechanism.
"""

import pytest

from repro import MachineParams, SPCluster
from repro.bench.harness import interrupt_pingpong_us

DWELLS = [10.0, 40.0, 80.0, 160.0]


@pytest.mark.parametrize("dwell", DWELLS)
def test_native_interrupt_latency_vs_dwell(benchmark, dwell):
    t = benchmark.pedantic(
        lambda: interrupt_pingpong_us(
            "native", 64, reps=6,
            params=MachineParams(hysteresis_initial_us=dwell,
                                 hysteresis_max_us=4 * dwell),
        ),
        rounds=1, iterations=1,
    )
    assert t > 0


def test_latency_monotonic_in_dwell(benchmark):
    def measure():
        return [
            interrupt_pingpong_us(
                "native", 64, reps=6,
                params=MachineParams(hysteresis_initial_us=d,
                                     hysteresis_max_us=4 * d),
            )
            for d in DWELLS
        ]

    ts = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert all(a < b for a, b in zip(ts, ts[1:])), ts


def test_dwell_counter_records_mechanism(benchmark):
    def measure():
        cluster = SPCluster(2, stack="native", interrupt_mode=True)

        def program(comm, rank, size):
            import numpy as np

            if rank == 0:
                yield from comm.send(b"\x07" * 64, dest=1)
                return None
            # spin on buffer contents (no MPI calls): progress can only
            # come from the interrupt path, dwell included
            buf = np.zeros(64, dtype=np.uint8)
            yield from comm.irecv(buf, source=0)
            while buf[-1] != 7:
                yield from comm.backend.cpu.execute(
                    "user", comm.backend.params.poll_check_us
                )
            # let the in-flight interrupt handler finish its dwell before
            # the run ends, so the statistic is recorded
            yield comm.env.timeout(2000.0)
            return None

        return cluster.run(program).stats

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert stats.hysteresis_dwells.value >= 1
    assert stats.interrupts.value >= 1
