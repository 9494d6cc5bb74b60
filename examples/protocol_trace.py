#!/usr/bin/env python3
"""Trace the eager and rendezvous protocols through the stack.

Sends one small (eager) and one large (rendezvous) message and prints
the protocol counters each produced: early arrivals, header handlers,
completion-handler styles, control traffic — the paper's Figs 3-9 as
observable behaviour.

Run:  python examples/protocol_trace.py
"""

from dataclasses import fields

from repro import MachineParams, SPCluster


def send_one(stack, size, late_receiver):
    cluster = SPCluster(2, stack=stack)
    payload = bytes(size)

    def program(comm, rank, n):
        if rank == 0:
            yield from comm.send(payload, dest=1)
            return None
        if late_receiver:
            yield from comm.probe(source=0)  # progress without a receive
        buf = bytearray(size)
        yield from comm.recv(buf, source=0)
        assert bytes(buf) == payload
        return None

    result = cluster.run(program)
    return result.stats


INTERESTING = [
    "eager_sends", "rendezvous_started", "early_arrivals",
    "hdr_handlers_run", "cmpl_handlers_threaded", "cmpl_handlers_inline",
    "copies", "bytes_copied", "packets_sent", "ctx_switches",
]


def show(title, stats):
    print(f"\n--- {title}")
    for name in INTERESTING:
        v = getattr(stats, name).value
        if v:
            print(f"    {name:24s} {v}")


def timeline(stack, size, export_perfetto=False):
    """Print one message's causal span tree (the trace subsystem).

    With ``export_perfetto`` the same trees are also written as
    Perfetto/Chrome trace-event JSON — drop the file on
    https://ui.perfetto.dev to see the cross-node timeline with flow
    arrows from sender to receiver.
    """
    import os
    import tempfile

    from repro.obs import build_span_trees, render_text, write_chrome_trace

    cluster = SPCluster(2, stack=stack, trace=True)
    payload = bytes(size)

    def program(comm, rank, n):
        if rank == 0:
            yield from comm.send(payload, dest=1)
            return None
        buf = bytearray(size)
        yield from comm.recv(buf, source=0)
        return None

    cluster.run(program)
    trees = build_span_trees(cluster.tracer)
    print(f"\n=== span tree: one {size}-byte message on {stack}")
    print(render_text(trees), end="")
    if export_perfetto:
        path = os.path.join(tempfile.gettempdir(),
                            f"protocol_trace_{stack}_{size}.perfetto.json")
        write_chrome_trace(trees, path)
        print(f"    perfetto export -> {path}")


def main():
    el = MachineParams().eager_limit
    print(f"eager limit = {el} bytes (paper default)")
    timeline("lapi-enhanced", 256)        # Fig 3: eager
    timeline("lapi-enhanced", 3 * el,     # Figs 4-7: rendezvous
             export_perfetto=True)
    timeline("lapi-base", 256)            # the §5 thread hand-off, visible
    show("eager, receive pre-posted (lapi-enhanced, 256 B)",
         send_one("lapi-enhanced", 256, late_receiver=False))
    show("eager, EARLY ARRIVAL (lapi-enhanced, 256 B, receiver late)",
         send_one("lapi-enhanced", 256, late_receiver=True))
    show("rendezvous (lapi-enhanced, 32 KiB)",
         send_one("lapi-enhanced", 32 * 1024, late_receiver=False))
    show("rendezvous on the Base variant: note the threaded completion "
         "handlers\n    and context switches",
         send_one("lapi-base", 32 * 1024, late_receiver=False))
    show("the native stack, same 32 KiB: staging copies instead",
         send_one("native", 32 * 1024, late_receiver=False))


if __name__ == "__main__":
    main()
