#!/usr/bin/env python3
"""Program directly against LAPI — the paper's Table 1 API.

Three tasks use one-sided Put/Get, a remote atomic (Rmw), counters and
fences with no MPI layer at all: the raw-lapi stack hands each rank the
Lapi object itself.

Run:  python examples/one_sided_lapi.py
"""

import numpy as np

from repro import SPCluster
from repro.lapi.counters import Counter


class SharedSlot:
    """A remotely RMW-able scalar."""

    def __init__(self, value=0):
        self.value = value


def program(lapi, rank, size):
    # publish a window and a fetch-and-add slot
    window = bytearray(64)
    ticket = SharedSlot(0)
    lapi.address_init("win", window)
    lapi.address_init("ticket", ticket)
    _cid, tgt_cntr = lapi.create_counter("win")
    yield from lapi.gfence("user")  # everyone registered

    log = []
    if rank != 0:
        # grab a unique ticket from task 0 with a remote fetch-and-add
        prev = Counter(lapi.env, "prev")
        rid = yield from lapi.rmw("user", 0, "ticket", "FETCH_AND_ADD", 1,
                                  prev_cntr=prev)
        yield from lapi.waitcntr("user", prev, 1)
        _done, my_ticket = lapi.rmw_result(rid)
        log.append(f"task {rank}: got ticket {my_ticket}")
        # write a greeting into task 0's window at our ticket's offset
        msg = f"[{rank}]".encode()
        yield from lapi.put("user", 0, "win", my_ticket * 8, msg)
        yield from lapi.fence("user")  # ensure it landed
    yield from lapi.gfence("user")
    if rank == 0:
        log.append(f"task 0 window: {bytes(window[:24])!r}  tickets={ticket.value}")
        # read back a remote copy with Get to prove symmetry
        peek = bytearray(8)
        org = Counter(lapi.env, "org")
        yield from lapi.get("user", 1, "win", 0, 8, peek, org_cntr=org)
        yield from lapi.waitcntr("user", org, 1)
    yield from lapi.gfence("user")
    return log


def main():
    cluster = SPCluster(3, stack="raw-lapi")
    result = cluster.run(program)
    for rank_log in result.values:
        for line in rank_log:
            print(line)
    print(f"\nsimulated time: {result.elapsed_us:.1f} us, "
          f"header handlers run: {result.stats.hdr_handlers_run.value}")


if __name__ == "__main__":
    main()
