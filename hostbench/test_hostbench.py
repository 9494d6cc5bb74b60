"""Tests of the benchmark itself (run with ``python -m pytest hostbench``).

Most use tiny workload scales: they check plumbing, accounting and
determinism, not performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from hostbench import calibrate, layers, run, workloads  # noqa: E402
from repro import SPCluster  # noqa: E402

TINY = 0.05


def one_pass(cells):
    tally = workloads.Tally()
    workloads.run_pass(cells, tally, time.perf_counter)
    return tally


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_runs_at_tiny_scale(name):
    cells = workloads.make_cells(name, seed=3, scale=TINY)
    tally = one_pass(cells)
    assert tally.attempted > 0
    assert 0 <= tally.wrong <= tally.failed <= tally.attempted
    if name != "known_defects":
        assert tally.failed == 0, tally.problems
    assert tally.packets > 0
    assert tally.counters["sim.events_popped"] > 0
    assert len(tally.sim_us) >= 2


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counters_and_sim_times_repeat_for_a_seed(name):
    first = one_pass(workloads.make_cells(name, seed=5, scale=TINY))
    again = one_pass(workloads.make_cells(name, seed=5, scale=TINY))
    assert run.fingerprint(first) == run.fingerprint(again)


def test_probe_counts_repeat_and_are_removed():
    from repro.machine.cpu import Cpu

    original = Cpu.__dict__["execute"]
    cells = workloads.make_cells("pingpong_small", seed=2, scale=TINY)
    counts = []
    for _ in range(2):
        with layers.Probes() as probes:
            one_pass(cells)
        counts.append(dict(probes.counts))
    assert counts[0] == counts[1]
    assert counts[0]["machine.charges"] > 0
    assert counts[0]["hal.sends"] > 0
    assert counts[0]["mpci.match_calls"] >= counts[0]["mpci.match_hits"] > 0
    assert Cpu.__dict__["execute"] is original


def test_runner_flags_a_pass_that_does_not_repeat():
    calls = []

    def flaky(_state, tally):
        calls.append(None)
        tally.sim_us.append(("flaky", float(len(calls))))
        tally.op(True, "")

    runner = run.Runner([workloads.Cell("flaky", lambda: None, flaky)])
    runner.one_pass()
    assert not runner.mismatch
    runner.one_pass()
    assert runner.mismatch


def test_known_defect_cells_are_counted_as_failed():
    tally = one_pass(workloads.make_cells("known_defects", seed=1))
    assert tally.failed > 0
    assert any("think" in p and "deadlock" in p for p in tally.problems)


def test_calibration_kernel_is_fixed_and_scales_pass_times():
    assert calibrate.kernel() == calibrate.CHECKSUM
    assert calibrate.kernel_seconds() > 0
    runner = run.Runner(workloads.make_cells("pingpong_small", seed=2,
                                             scale=TINY))
    _tally, build_s, run_s, raw_run_s = runner.one_pass()
    k0, k1 = runner.kernel_s
    assert run_s == pytest.approx(raw_run_s * 2 * calibrate.REFERENCE_S
                                  / (k0 + k1))
    assert build_s > 0


def test_different_seeds_give_different_inputs():
    a = one_pass(workloads.make_cells("pingpong_small", seed=1, scale=TINY))
    b = one_pass(workloads.make_cells("pingpong_small", seed=2, scale=TINY))
    assert a.sim_us != b.sim_us


def test_forced_deadlock_counts_every_unfinished_op_as_failed():
    def program(comm, rank, size, done):
        if rank == 0:
            buf = bytearray(4)
            yield from comm.send(b"ping", dest=1)
            yield from comm.recv(buf, source=1)  # rank 1 never replies
            done.append(buf == b"pong")
        else:
            buf = bytearray(4)
            yield from comm.recv(buf, source=0)
            done.append(buf == b"ping")

    cell = workloads._mpi_cell("forced", lambda: SPCluster(2, stack="native"),
                               program, n_ops=2)
    tally = one_pass([cell])
    assert tally.attempted == 2
    assert tally.failed == 1  # rank 1's receive finished and was right
    assert tally.wrong == 0
    assert "deadlock" in tally.problems[0]
    assert tally.sim_us and tally.sim_us[0][0] == "forced"


def test_wrong_bytes_count_as_failed_and_wrong():
    def program(comm, rank, size, done):
        buf = bytearray(4)
        if rank == 0:
            yield from comm.send(b"abcd", dest=1)
        else:
            yield from comm.recv(buf, source=0)
            done.append(buf == b"abce")

    cell = workloads._mpi_cell("mismatch", lambda: SPCluster(2), program, 1)
    tally = one_pass([cell])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_layer_of_folds_files_by_package():
    src = ROOT / "src" / "repro"
    assert layers.layer_of(str(src / "sim" / "core.py")) == "sim"
    assert layers.layer_of(str(src / "mpi" / "rma.py")) == "mpi.rma"
    assert layers.layer_of(str(src / "mpi" / "backends" / "native.py")) == "mpi"
    assert layers.layer_of(str(src / "obs" / "rma.py")) == "obs"
    assert layers.layer_of(str(src / "trace.py")) == "obs"
    assert layers.layer_of(str(src / "cluster" / "cluster.py")) == "other"
    assert layers.layer_of(workloads.__file__) == "bench"
    assert layers.layer_of("~") == ""


def test_fold_charges_foreign_time_to_callers():
    sim = (str(ROOT / "src" / "repro" / "sim" / "core.py"), 1, "step")
    lapi = (str(ROOT / "src" / "repro" / "lapi" / "api.py"), 1, "send")
    builtin = ("~", 0, "<built-in method heappush>")
    stats = {
        sim: (1, 1, 2.0, 3.0, {}),
        lapi: (1, 1, 1.0, 2.0, {}),
        builtin: (4, 4, 4.0, 4.0, {sim: (3, 3, 3.0, 3.0),
                                   lapi: (1, 1, 1.0, 1.0)}),
    }
    folded = layers.fold_self_time(stats)
    assert folded["sim"] == pytest.approx(2.0 + 3.0)
    assert folded["lapi"] == pytest.approx(1.0 + 1.0)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    proc = subprocess.run(
        bench["command"] + ["--workload", "pingpong_small", "--seed", "4",
                            "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    declared = {m["name"]: m["unit"] for m in bench[key]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == declared


def test_cli_fails_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "nas_s4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
