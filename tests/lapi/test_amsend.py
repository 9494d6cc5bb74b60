"""LAPI_Amsend: header handlers, assembly, counters, completion modes."""

import pytest

from repro.lapi import LapiError
from repro.lapi.buffers import ByteTarget, NullTarget
from tests.lapi.conftest import LapiRig


def install_sink(task, name="sink", size=1 << 16):
    """Register a header handler that assembles into a bytearray and
    records completions."""
    state = {"buf": bytearray(size), "completions": [], "uhdrs": []}

    def hh(lapi, src, uhdr, mlen):
        state["uhdrs"].append((src, dict(uhdr), mlen))

        def cmpl(lapi_, thread, data):
            state["completions"].append((lapi_.env.now, thread, data))
            yield lapi_.env.timeout(0)

        return ByteTarget(state["buf"]), cmpl, uhdr.get("token")

    task.register_handler(name, hh)
    return state


def test_amsend_single_packet_delivers_and_counts(rig2):
    t0, t1 = rig2.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter("tgt")
    org_cntr_holder = {}

    def sender():
        from repro.lapi.counters import Counter

        org = Counter(rig2.env, "org")
        org_cntr_holder["org"] = org
        yield from t0.amsend("user", 1, "sink", {"token": 42}, b"payload!",
                             tgt_cntr_id=tgt_id, org_cntr=org)
        yield from t0.waitcntr("user", org, 1)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig2.run(sender(), receiver())
    assert bytes(sink["buf"][:8]) == b"payload!"
    assert sink["uhdrs"][0][0] == 0
    assert sink["uhdrs"][0][1]["token"] == 42
    assert sink["uhdrs"][0][2] == 8
    assert len(sink["completions"]) == 1
    assert tgt_cntr.value == 0  # waitcntr decremented
    assert org_cntr_holder["org"].value == 0


def test_multi_packet_message_assembled_in_order(rig2):
    t0, t1 = rig2.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()
    data = bytes(range(256)) * 20  # 5120 B -> 5 packets

    def sender():
        yield from t0.amsend("user", 1, "sink", {}, data, tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig2.run(sender(), receiver())
    assert bytes(sink["buf"][: len(data)]) == data


def test_out_of_order_packets_assembled_by_offset():
    rig = LapiRig(2, route_skew_us=400.0, route_jitter_us=100.0, packet_payload=256)
    t0, t1 = rig.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()
    data = bytes([i % 251 for i in range(2500)])  # 10 packets

    def sender():
        yield from t0.amsend("user", 1, "sink", {}, data, tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig.run(sender(), receiver())
    assert bytes(sink["buf"][: len(data)]) == data
    assert len(sink["completions"]) == 1


def test_zero_byte_amsend_completes(rig2):
    t0, t1 = rig2.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "sink", {"ctrl": True}, b"", tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig2.run(sender(), receiver())
    assert len(sink["completions"]) == 1
    assert sink["uhdrs"][0][2] == 0


def test_floor_holds_message_until_target_counter_reaches_it(rig2):
    """A message sent with ``tgt_cntr_floor=1`` arrives first but runs
    its header handler only after the message that bumps the counter."""
    t0, t1 = rig2.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "sink", {"token": "second"}, b"B" * 3000,
                             tgt_cntr_id=tgt_id, tgt_cntr_floor=1)
        yield from t0.amsend("user", 1, "sink", {"token": "first"}, b"A" * 8,
                             tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 2)

    rig2.run(sender(), receiver())
    assert [u[1]["token"] for u in sink["uhdrs"]] == ["first", "second"]
    assert bytes(sink["buf"][:3000]) == b"B" * 3000
    assert not t1._held and not t1._assemblies


def test_base_mode_completion_runs_on_separate_thread():
    rig = LapiRig(2, enhanced=False)
    t0, t1 = rig.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "sink", {}, b"x", tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig.run(sender(), receiver())
    assert rig.stats[1].cmpl_handlers_threaded.value == 1
    assert rig.stats[1].cmpl_handlers_inline.value == 0
    # handler ran on the "cmpl" thread
    assert sink["completions"][0][1] == "cmpl"
    # receiver paid thread context switches
    assert rig.stats[1].ctx_switches.value >= 1


def test_enhanced_mode_completion_runs_inline():
    rig = LapiRig(2, enhanced=True)
    t0, t1 = rig.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "sink", {}, b"x", tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig.run(sender(), receiver())
    assert rig.stats[1].cmpl_handlers_inline.value == 1
    assert rig.stats[1].cmpl_handlers_threaded.value == 0
    assert sink["completions"][0][1] == "user"
    assert rig.stats[1].ctx_switches.value == 0


def test_enhanced_latency_beats_base():
    """The paper's Fig 10 core claim at one message."""
    times = {}
    for enhanced in (False, True):
        rig = LapiRig(2, enhanced=enhanced)
        t0, t1 = rig.tasks
        install_sink(t1)
        tgt_id, tgt_cntr = t1.create_counter()
        done = {}

        def sender(t0=t0, tgt_id=tgt_id):
            yield from t0.amsend("user", 1, "sink", {}, b"y" * 100, tgt_cntr_id=tgt_id)

        def receiver(rig=rig, t1=t1, tgt_cntr=tgt_cntr, done=done):
            yield from t1.waitcntr("user", tgt_cntr, 1)
            done["t"] = rig.env.now

        rig.run(sender(), receiver())
        times[enhanced] = done["t"]
    assert times[True] < times[False]
    # the gap should be about one context switch
    gap = times[False] - times[True]
    assert gap > 10.0


def test_header_handler_may_not_call_lapi(rig2):
    t0, t1 = rig2.tasks
    errors = []

    def evil_hh(lapi, src, uhdr, mlen):
        try:
            # not even a yield needed: the call itself must raise
            gen = lapi.amsend("user", src, "_lapi_null", {})
            next(gen)
        except LapiError as e:
            errors.append(str(e))
        return NullTarget(), None, None

    t1.register_handler("evil", evil_hh)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "evil", {}, b"", tgt_cntr_id=tgt_id)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig2.run(sender(), receiver())
    assert errors and "header handler" in errors[0]


def test_amsend_to_self_rejected(rig2):
    t0 = rig2.tasks[0]

    def proc():
        yield from t0.amsend("user", 0, "_lapi_null", {})

    with pytest.raises(LapiError):
        rig2.run(proc())


def test_amsend_unregistered_handler_fails_at_target(rig2):
    t0, t1 = rig2.tasks
    _id, c = t1.create_counter()

    def sender():
        yield from t0.amsend("user", 1, "nope", {})

    def receiver():
        yield from t1.waitcntr("user", c, 1)

    with pytest.raises(LapiError, match="unregistered header handler"):
        rig2.run(sender(), receiver())


def test_duplicate_handler_registration_rejected(rig2):
    t0 = rig2.tasks[0]
    t0.register_handler("h", lambda *a: (None, None, None))
    with pytest.raises(LapiError):
        t0.register_handler("h", lambda *a: (None, None, None))


def test_completion_counter_echo(rig2):
    """cmpl_cntr lives at the ORIGIN and fires after target completion."""
    from repro.lapi.counters import Counter

    t0, t1 = rig2.tasks
    install_sink(t1)
    fired = {}

    def sender():
        cmpl = Counter(rig2.env, "cmpl")
        yield from t0.amsend("user", 1, "sink", {}, b"data", cmpl_cntr=cmpl)
        yield from t0.waitcntr("user", cmpl, 1)
        fired["t"] = rig2.env.now

    def receiver():
        # target must drive its dispatcher for anything to happen
        _id, c = t1.create_counter()
        yield rig2.env.timeout(0)
        while not fired:
            yield from t1.dispatch("user")
            yield rig2.env.timeout(5.0)

    rig2.run(sender(), receiver(), until=1e5)
    assert "t" in fired


def test_reliability_under_loss():
    rig = LapiRig(2, packet_loss_rate=0.12, seed=5, packet_payload=256)
    t0, t1 = rig.tasks
    sink = install_sink(t1)
    tgt_id, tgt_cntr = t1.create_counter()
    data = bytes([i % 256 for i in range(4000)])

    def sender():
        yield from t0.amsend("user", 1, "sink", {}, data, tgt_cntr_id=tgt_id)
        # keep making progress so retransmissions flow
        while tgt_cntr.value == 0 and rig.env.now < 5e6:
            yield from t0.dispatch("user")
            yield rig.env.timeout(100.0)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig.run(sender(), receiver(), until=6e6)
    assert bytes(sink["buf"][: len(data)]) == data
    assert rig.stats[0].retransmissions.value + rig.stats[1].retransmissions.value > 0
