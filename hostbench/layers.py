"""Per-layer numbers for the traced run.

Two instruments, both installed from the benchmark's own files and
removed afterwards, so the program under test is not edited:

- :class:`Probes` wraps a handful of public entry points (``Cpu.execute``,
  ``Hal.send``, ``Lapi.dispatch``, the MPCI match queues) with counting
  wrappers.  Generator entry points are counted per call, not per
  resume, and the counts repeat exactly for a seed.  The metric types'
  update methods are plain functions called ~100 times per packet, so
  they are counted from the profiler's own call counts instead
  (:func:`metric_ops`), which adds no wrapper to the hot path.
- :func:`fold_self_time` folds a ``cProfile`` run's self time by the
  ``repro.<package>`` that owns each function.  Time in code outside
  ``repro`` (builtins, numpy, the standard library) is charged to its
  callers in proportion to the time each call edge spent there.

:func:`layer_metrics` turns one traced pass into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
from typing import Callable

import repro

__all__ = ["LAYERS", "Probes", "fold_self_time", "layer_metrics", "layer_of",
           "metric_ops"]

#: the layers whose self time is reported, in stack order
LAYERS = ("sim", "machine", "network", "hal", "transport", "lapi", "pipes",
          "mpci", "mpi", "mpi.rma", "obs", "faults", "nas")

#: ``repro`` sub-packages and modules folded into a reported layer
_ALIASES = {"trace": "obs", "mpi/rma": "mpi.rma"}

#: this package's files: the workloads' rank programs and the probes
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def layer_of(filename: str) -> str:
    """The layer owning a function defined in ``filename``.

    ``"bench"`` for this benchmark's own files, ``"other"`` for the rest
    of ``repro`` (cluster wiring, ``repro.bench`` helpers) and ``""`` for
    code outside ``repro`` altogether.
    """
    path = os.path.abspath(filename)
    if os.path.dirname(path) == _BENCH_DIR:
        return "bench"
    if not path.startswith(_REPRO_DIR + os.sep):
        return ""
    module = os.path.splitext(os.path.relpath(path, _REPRO_DIR))[0]
    module = module.replace(os.sep, "/")
    for prefix, layer in _ALIASES.items():
        if module == prefix or module.startswith(prefix + "/"):
            return layer
    head = module.split("/")[0]
    return head if head in LAYERS else "other"


def fold_self_time(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each calling function to that
    edge's ``(nc, cc, tt, ct)``.
    """
    memo: dict = {}

    def shares(func) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # a cycle of foreign code
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            return memo[func]
        out: dict[str, float] = collections.defaultdict(float)
        for caller, w in weights.items():
            for layer, share in shares(caller).items():
                out[layer] += share * w / total
        memo[func] = dict(out)
        return memo[func]

    folded: dict[str, float] = collections.defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in shares(func).items():
            folded[layer] += tt * share
    return dict(folded)


class Probes:
    """Counting wrappers around public entry points, installed on the
    classes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.counts: collections.Counter = collections.Counter()
        self._saved: list = []

    def _targets(self) -> list[tuple[type, str, Callable]]:
        from repro.hal.hal import Hal
        from repro.lapi.api import Lapi
        from repro.machine.cpu import Cpu
        from repro.mpci.match import EarlyArrivalQueue, PostedReceiveQueue

        counts = self.counts

        def tally(key):
            def wrap(fn):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return counted
            return wrap

        def match(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                found = fn(*args, **kwargs)
                counts["mpci.match_calls"] += 1
                counts["mpci.match_hits"] += found[0] is not None
                return found
            return counted

        def memcpy(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("repro.pipes"):
                    counts["pipes.copies"] += 1
                return fn(*args, **kwargs)
            return counted

        return [
            (Cpu, "execute", tally("machine.charges")),
            (Cpu, "memcpy", memcpy),
            (Hal, "send", tally("hal.sends")),
            (Lapi, "dispatch", tally("lapi.dispatch_calls")),
            (PostedReceiveQueue, "match", match),
            (EarlyArrivalQueue, "match", match),
        ]

    def __enter__(self) -> "Probes":
        for cls, name, wrap in self._targets():
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def metric_ops(stats: dict) -> int:
    """Calls of the metric update methods, from ``pstats`` stats."""
    from repro.obs.registry import Counter, Gauge, Histogram

    total = 0
    for fn in (Counter.incr, Counter.set, Gauge.set, Histogram.observe):
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        total += entry[1] if entry else 0
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counters: dict, probes: dict, packets: int) -> dict[str, float]:
    """The deterministic per-layer counts of one pass (no times).

    ``counters`` are the program's own (summed ``metrics_snapshot``
    counters), ``probes`` the :class:`Probes` counts.
    """
    c = collections.Counter(counters)
    p = collections.Counter(probes)
    events = c["sim.events_popped"]
    sent = c["packets_sent"]
    return {
        "sim.events": events,
        "sim.switches": c["sim.process_switches"],
        "sim.events_per_pkt": _ratio(events, packets),
        "machine.charges": p["machine.charges"],
        "machine.charges_per_pkt": _ratio(p["machine.charges"], packets),
        "machine.bytes_copied": c["bytes_copied"],
        "machine.ctx_switches": c["ctx_switches"],
        "network.packets": packets,
        "network.interrupts": c["interrupts"],
        "network.hysteresis_dwells": c["hysteresis_dwells"],
        "network.polls_per_pkt": _ratio(c["polls"], c["packets_received"]),
        "hal.sends": p["hal.sends"],
        "pipes.frames": c["pipes.frames_sent"],
        "pipes.copies": p["pipes.copies"],
        "transport.acks": c["acks_sent"],
        "transport.retransmissions": c["retransmissions"],
        "transport.first_try_ratio": _ratio(sent - c["retransmissions"], sent),
        "lapi.amsends": c["lapi.amsend"],
        "lapi.hdr_handlers": c["hdr_handlers_run"],
        "lapi.cmpl_threaded": c["cmpl_handlers_threaded"],
        "lapi.dispatch_calls": p["lapi.dispatch_calls"],
        "lapi.dispatch_yield": _ratio(c["lapi.dispatch_pkts"],
                                      p["lapi.dispatch_calls"]),
        "mpci.match_calls": p["mpci.match_calls"],
        "mpci.early_arrivals": c["early_arrivals"],
        "mpci.match_hit_ratio": _ratio(p["mpci.match_hits"],
                                       p["mpci.match_calls"]),
        "mpi.msgs": c["msgs_sent"],
        "mpi.rendezvous": c["rendezvous_started"],
        "mpi.rma.ops": sum(c[k] for k in ("rma.put", "rma.get", "rma.acc",
                                          "rma.gacc", "rma.rmw")),
        "obs.metric_ops": p["obs.metric_ops"],
        "obs.metric_ops_per_pkt": _ratio(p["obs.metric_ops"], packets),
        "faults.injected": sum(v for k, v in c.items()
                               if k.startswith("fault.")),
    }
