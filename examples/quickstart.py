#!/usr/bin/env python3
"""Quickstart: a two-node ping-pong on the MPI-LAPI stack.

Builds a simulated 2-node RS/6000 SP, runs a blocking-send/recv
ping-pong over the paper's enhanced MPI-LAPI stack, and reports the
one-way latency plus what the protocol machinery did under the hood.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SPCluster


def pingpong(comm, rank, size, msg_size=1024, reps=10):
    """Each rank's program: generators yield on blocking operations."""
    payload = np.arange(msg_size, dtype=np.uint8)
    buf = np.zeros(msg_size, dtype=np.uint8)
    yield from comm.barrier()
    t0 = comm.env.now
    for _ in range(reps):
        if rank == 0:
            yield from comm.send(payload, dest=1, tag=7)
            yield from comm.recv(buf, source=1, tag=7)
        else:
            yield from comm.recv(buf, source=0, tag=7)
            yield from comm.send(buf, dest=0, tag=7)
    elapsed = comm.env.now - t0
    assert np.array_equal(buf, payload), "data corrupted in flight!"
    return elapsed / reps / 2.0  # one-way time


def main():
    for stack in ("native", "lapi-enhanced"):
        cluster = SPCluster(2, stack=stack)
        result = cluster.run(pingpong)
        s = result.stats
        print(f"stack={stack:14s} one-way latency {result.values[0]:7.2f} us | "
              f"copies={s.copies.value:3d} ({s.bytes_copied.value} B) "
              f"packets={s.packets_sent.value} ctx-switches={s.ctx_switches.value}")
    print("\nThe native stack stages every byte through pipe buffers;")
    print("MPI-LAPI's header handlers deliver straight into the user buffer.")


if __name__ == "__main__":
    main()
