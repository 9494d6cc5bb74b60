"""NodeStats bookkeeping."""

from repro.machine import NodeStats
from repro.machine.stats import aggregate


def test_record_copy():
    s = NodeStats()
    s.record_copy(100)
    s.record_copy(50)
    assert s.copies.value == 2
    assert s.bytes_copied.value == 150


def test_merged_with_sums_fields():
    a = NodeStats(copies=1, packets_sent=5)
    b = NodeStats(copies=2, packets_sent=7, interrupts=3)
    c = a.merged_with(b)
    assert c.copies.value == 3
    assert c.packets_sent.value == 12
    assert c.interrupts.value == 3
    # originals untouched
    assert a.copies.value == 1


def test_aggregate_many():
    parts = [NodeStats(msgs_sent=i) for i in range(5)]
    total = aggregate(parts)
    assert total.msgs_sent.value == 10


def test_as_dict_covers_all_fields():
    s = NodeStats()
    d = s.as_dict()
    assert d["copies"] == 0
    assert "hysteresis_dwells" in d
    assert "deferred_announcements" in d
    assert all(isinstance(v, int) for v in d.values())


def test_trace_noop_without_tracer():
    s = NodeStats()
    s.trace("layer", "event", detail=1)  # must not raise
