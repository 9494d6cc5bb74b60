"""Pipes reliability edge cases: duplicate acks, RTO recovery, windows."""

import numpy as np
import pytest

from tests.pipes.test_endpoint import Rig, frame_bytes


def test_total_blackhole_then_recovery_via_rto():
    """Every first-transmission packet is lost; only retransmissions
    get through (loss is turned off mid-flight by swapping the rate)."""
    rig = Rig(packet_payload=512, packet_loss_rate=0.999, seed=1)
    rig.run_poller(1)
    data = b"r" * 1500  # 3 packets

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e"}, data)
        # after the first transmissions are gone, heal the fabric
        yield rig.env.timeout(1000.0)
        rig.params.packet_loss_rate = 0.0
        # drive retransmission progress from this side
        while len(rig.delivered[1]) < 3 and rig.env.now < 1e6:
            yield from rig.pipes[0].dispatch("user")
            yield rig.env.timeout(500.0)

    rig.env.process(sender())
    rig.env.run(until=2e6)
    assert frame_bytes(rig.delivered[1], 1500) == data
    assert rig.stats[0].retransmissions.value >= 1


def test_duplicate_data_packets_acked_not_redelivered():
    """Force a duplicate by retransmitting when nothing was lost."""
    rig = Rig(packet_payload=512, pipe_rto_us=200.0, pipe_ack_delay_us=5000.0,
              pipe_ack_every=1000)
    rig.run_poller(1)
    data = b"d" * 400

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e"}, data)
        # acks are heavily delayed, so the RTO fires and retransmits a
        # packet the receiver already has
        yield rig.env.timeout(3000.0)

    rig.env.process(sender())
    rig.env.run(until=1e5)
    # delivered exactly once despite the duplicate on the wire
    assert len(rig.delivered[1]) == 1
    assert rig.stats[0].retransmissions.value >= 1
    # the duplicate triggered an immediate ack
    assert rig.stats[1].acks_sent.value >= 1


def test_window_respects_configured_limit():
    rig = Rig(packet_payload=256, pipe_window_pkts=4)
    # receiver never drains: at most `window` packets reach the adapter
    data = b"w" * 4096  # 16 packets

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e"}, data)

    rig.env.process(sender())
    rig.env.run(until=1e5)
    # distinct packets injected = the window size (RTO retransmissions of
    # the oldest unacked packet are counted separately)
    distinct = rig.stats[0].packets_sent.value - rig.stats[0].retransmissions.value
    assert distinct == 4


def test_ack_every_packet_mode():
    rig = Rig(packet_payload=256, pipe_ack_every=1)
    rig.run_poller(1)
    data = b"a" * 1024  # 4 packets

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e"}, data)

    rig.env.process(sender())
    rig.env.run(until=1e5)
    assert rig.stats[1].acks_sent.value >= 4


def test_interleaved_frames_to_two_destinations():
    rig = Rig(n=3)
    rig.run_poller(1)
    rig.run_poller(2)

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e", "k": 1},
                                           b"x" * 900, fid=1)
        yield from rig.pipes[0].send_frame("user", 2, {"type": "e", "k": 2},
                                           b"y" * 900, fid=2)

    rig.env.process(sender())
    rig.env.run(until=1e5)
    assert frame_bytes(rig.delivered[1], 900) == b"x" * 900
    assert frame_bytes(rig.delivered[2], 900) == b"y" * 900
