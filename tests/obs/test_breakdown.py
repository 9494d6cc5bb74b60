"""The latency-breakdown profiler (paper Fig 10 as data)."""

import pytest

from repro.obs import PHASES, TruncatedTraceError, breakdown, lapi_breakdowns
from repro.trace import Tracer

ALL_STACKS = ("lapi-base", "lapi-counters", "lapi-enhanced", "native")


@pytest.fixture(scope="module")
def breakdowns():
    return {
        stack: breakdown(stack, 256, reps=3) for stack in ALL_STACKS
    }


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_every_data_message_gets_a_breakdown(breakdowns, stack):
    summary, downs = breakdowns[stack]
    assert summary["count"] == 6  # 3 reps each way
    assert all(b.bytes == 256 for b in downs)


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_phases_partition_end_to_end(breakdowns, stack):
    _summary, downs = breakdowns[stack]
    for b in downs:
        assert set(b.phases) == set(PHASES)
        assert sum(b.phases.values()) == pytest.approx(b.end_to_end, abs=1e-9)
        assert all(v >= 0.0 for v in b.phases.values()), b.phases


def test_base_pays_the_thread_switch(breakdowns):
    summary, _ = breakdowns["lapi-base"]
    assert summary["phases_us"]["thread_switch"] > 0.0


@pytest.mark.parametrize("stack", ["lapi-counters", "lapi-enhanced", "native"])
def test_only_base_pays_the_thread_switch(breakdowns, stack):
    summary, _ = breakdowns[stack]
    assert summary["phases_us"]["thread_switch"] == 0.0


def test_base_slowdown_is_mostly_the_switch(breakdowns):
    """The §5 claim, quantified: the Base-vs-Enhanced latency gap is
    dominated by the completion-handler context switch."""
    base, _ = breakdowns["lapi-base"]
    enh, _ = breakdowns["lapi-enhanced"]
    gap = base["end_to_end_us"] - enh["end_to_end_us"]
    assert base["phases_us"]["thread_switch"] > 0.75 * gap


def test_native_charges_copies_not_handlers(breakdowns):
    summary, _ = breakdowns["native"]
    ph = summary["phases_us"]
    assert ph["hdr_handler"] == 0.0
    assert ph["completion"] == 0.0
    assert ph["copy"] > 0.0


# ------------------------------------------------------------ truncation
def _truncated_tracer():
    class _Clock:
        now = 0.0

    t = Tracer(_Clock(), capacity=1)
    t.emit(0, "lapi", "amsend", msg=0, tgt=1, bytes=4)
    t.emit(0, "lapi", "amsend", msg=1, tgt=1, bytes=4)  # dropped
    assert t.dropped == 1
    return t


def test_truncated_trace_raises():
    with pytest.raises(TruncatedTraceError):
        lapi_breakdowns(_truncated_tracer())


def test_truncated_trace_warns_once_when_allowed():
    import repro.obs.breakdown as bd

    bd._warned_truncated = False
    with pytest.warns(RuntimeWarning):
        lapi_breakdowns(_truncated_tracer(), allow_truncated=True)
    # second call: the warning is not repeated
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lapi_breakdowns(_truncated_tracer(), allow_truncated=True)


def test_summarize_empty_is_all_zero():
    from repro.obs import summarize

    s = summarize([])
    assert s["count"] == 0
    assert all(v == 0.0 for v in s["phases_us"].values())
