"""Host cost of simulating the SP: one workload per invocation.

Usage, from the root of the repository::

    python3 hostbench/run.py --workload pingpong_small --seed 1 \\
        --seconds 20 --trace 0

The workload's cells are rebuilt and rerun in passes until ``--seconds``
of wall time have elapsed (at least three passes, after one warm-up pass).  Every
pass checks every output and must reproduce the first pass's simulated
times and counters exactly.  Every host time is scaled by the speed of
the moment, measured with ``hostbench/calibrate.py`` right beside it, to
seconds on the reference host.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the
first half of the time on plain passes and the second half on traced
passes (counting probes plus ``cProfile``) and prints the per-layer
metrics, including ``trace.overhead``.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
``correct`` is false, and the exit code 1, when an op failed or a pass
did not repeat the first.  See ``hostbench/README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench.calibrate import REFERENCE_S, kernel_seconds  # noqa: E402

#: the timed workloads of ``BENCHMARK.json``, then the diagnostic one
#: whose ops fail at the parent commit (see ``hostbench/README.md``)
WORKLOAD_NAMES = ("pingpong_small", "stream_bulk", "nas_s4",
                  "interrupt_rma_lossy", "known_defects")

#: numpy/BLAS/OpenMP pools pinned to one thread: the whole benchmark is
#: one single-threaded process on a small shared box
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: what ``setup_s`` charges as the import: every package a workload uses
IMPORTS = "import repro, repro.nas, repro.faults, repro.mpi.rma, repro.bench.nas"
IMPORT_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: the clock every host time is read from: CPU seconds of this process,
#: which a neighbour on a shared machine disturbs far less than wall time
clock = time.process_time


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds() -> tuple[float, float]:
    """Import time of ``IMPORTS``, median over fresh interpreters:
    ``(scaled to the reference host, raw)``.  Each interpreter runs the
    calibration kernel just before and just after the import."""
    code = ("import time\n"
            "from hostbench.calibrate import kernel_seconds\n"
            "c0 = kernel_seconds(); t = time.process_time()\n"
            + IMPORTS + "\n"
            "t = time.process_time() - t; print(t, c0, kernel_seconds())")
    scaled, raw = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        t, c0, c1 = map(float, out.stdout.split()[-3:])
        scaled.append(t * REFERENCE_S * 2 / (c0 + c1))
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint(tally) -> tuple:
    """Everything about a pass that must repeat exactly for a seed."""
    return (tally.attempted, tally.failed, tally.wrong, tally.packets,
            tuple(tally.sim_us), tuple(sorted(tally.counters.items())))


class Runner:
    """Passes over one workload's cells, with the determinism check.

    The calibration kernel runs between passes; a pass's host times are
    scaled by the mean of the kernel times just before and just after
    it, to seconds on the reference host.
    """

    def __init__(self, cells):
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mismatch: set[str] = set()
        self.kernel_s: list[float] = [kernel_seconds(clock)]
        self._first = None

    def one_pass(self, before_run=None, after_run=None):
        """``(tally, build_s, run_s, raw run_s)``: the first two times
        scaled to the reference host."""
        from hostbench.workloads import Tally, run_pass

        tally = Tally()
        gc.collect()  # every pass starts from the same heap state
        build_s, run_s = run_pass(self.cells, tally, clock, before_run,
                                  after_run)
        self.kernel_s.append(kernel_seconds(clock))
        scale = REFERENCE_S * 2 / (self.kernel_s[-2] + self.kernel_s[-1])
        self.attempted += tally.attempted
        self.failed += tally.failed
        if not self.problems:
            self.problems = list(tally.problems)
        fp = fingerprint(tally)
        if self._first is None:
            self._first = fp
        elif fp != self._first:
            self.mismatch.add("simulated times or counters differ "
                              "between passes of one seed")
        return tally, build_s * scale, run_s * scale, run_s


def traced_pass(runner: Runner):
    """One pass under the probes and the profiler; returns
    ``(tally, run_s, probe counts, self seconds per layer)``."""
    import cProfile
    import pstats

    from hostbench.layers import Probes, fold_self_time, metric_ops

    profiler = cProfile.Profile()
    with Probes() as probes:
        tally, _build_s, run_s, _raw = runner.one_pass(profiler.enable,
                                                       profiler.disable)
    stats = pstats.Stats(profiler).stats
    counts = dict(probes.counts, **{"obs.metric_ops": metric_ops(stats)})
    return tally, run_s, counts, fold_self_time(stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import_s, raw_import_s = import_seconds()
    # numpy (imported by the workloads) must load after the pinning above
    from hostbench.workloads import make_cells

    cells = make_cells(args.workload, args.seed)
    runner = Runner(cells)
    start = time.perf_counter()
    runner.one_pass()  # warm-up: checked and counted, not timed
    plain = []
    budget = args.seconds / 2 if args.trace else args.seconds
    while len(plain) < MIN_PASSES or time.perf_counter() - start < budget:
        tally, build_s, run_s, raw_run_s = runner.one_pass()
        plain.append((build_s, run_s, raw_run_s))

    kernel_q = quartiles(runner.kernel_s)
    print(f"hostbench {args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} clock=process_time "
          f"kernel_s median {kernel_q[1]:.5f} q1 {kernel_q[0]:.5f} "
          f"q3 {kernel_q[2]:.5f} (reference {REFERENCE_S})")
    run_q = quartiles([r for _b, r, _raw in plain])
    raw_q = quartiles([raw for _b, _r, raw in plain])
    build_q = quartiles([b for b, _r, _raw in plain])
    print(f"run_s    median {run_q[1]:.4f} q1 {run_q[0]:.4f} q3 {run_q[2]:.4f} "
          f"n={len(plain)} passes; raw median {raw_q[1]:.4f} "
          f"q1 {raw_q[0]:.4f} q3 {raw_q[2]:.4f}")
    print(f"build_s  median {build_q[1]:.5f} q1 {build_q[0]:.5f} "
          f"q3 {build_q[2]:.5f} n={len(plain)}; import_s {import_s:.4f} "
          f"(raw {raw_import_s:.4f}, median of {IMPORT_SAMPLES})")
    print(f"per pass: {tally.packets} packets, {len(tally.sim_us)} cluster "
          f"runs, {tally.attempted} ops, {tally.failed} failed")

    if args.trace:
        traced = []
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() - start < args.seconds):
            traced.append(traced_pass(runner))
            if traced[-1][2] != traced[0][2]:
                runner.mismatch.add("probe counts differ between "
                                    "traced passes of one seed")
        metrics, shares = per_layer(traced, run_q[1])
        units = {name: ("s" if name.endswith("self_s") else
                        "B" if name.endswith("bytes_copied") else
                        "ratio" if name.endswith(("_per_pkt", "_ratio",
                                                  "_yield", "overhead"))
                        else "count")
                 for name in metrics}
        for name, value in metrics.items():
            print(f"  {name:28s} {value:.6g}")
        print(f"self-time shares over {len(traced)} traced passes: "
              + ", ".join(f"{layer} {100 * v:.1f}%"
                          for layer, v in shares.items()))
    else:
        packets = tally.packets
        metrics = {
            "run_s": run_q[1],
            "setup_s": import_s + build_q[1],
            "pkts_per_s": packets / run_q[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": 1.0 - runner.failed / runner.attempted,
        }
        units = {"run_s": "s", "setup_s": "s", "pkts_per_s": "1/s",
                 "peak_rss_mb": "MB", "ok_rate": "ratio"}

    for problem in runner.problems[:8]:
        print(f"failed op: {problem}")
    for problem in runner.mismatch:
        print(f"NONDETERMINISTIC: {problem}")
    correct = not runner.mismatch and not runner.failed
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def per_layer(traced: list, plain_run_s: float):
    """Per-layer metrics from the traced passes: counts from the first
    (they must repeat), self seconds and overhead as medians.  Also
    returns each layer's share of all profiled self time, including the
    benchmark's own code (``bench``) and the rest of ``repro``
    (``other``)."""
    from hostbench.layers import LAYERS, layer_metrics

    first_tally, _run_s, first_probes, _folded = traced[0]
    self_s = {layer: statistics.median(f.get(layer, 0.0) for *_x, f in traced)
              for layer in LAYERS + ("bench", "other")}
    total = sum(self_s.values())
    shares = {layer: v / total for layer, v in self_s.items()}
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update(layer_metrics(first_tally.counters, first_probes,
                             first_tally.packets))
    traced_run_s = statistics.median(r for _t, r, _p, _f in traced)
    out["trace.overhead"] = traced_run_s / plain_run_s
    return out, shares


if __name__ == "__main__":
    raise SystemExit(main())
