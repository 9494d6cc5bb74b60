"""Simulated SP switch network: packets, fabric, and node adapters.

The fabric models the SP's multistage packet-switched network: four
source routes per node pair with differing congestion (skew + jitter),
which is what produces genuine out-of-order packet arrival — the
phenomenon both the Pipes layer (reordering byte stream) and LAPI
(assemble-by-offset) must handle.  Packet loss can be injected for
reliability testing.

The adapter models the TB3/TBMX card as an analytic FCFS pipeline: a
bounded send FIFO feeding the send DMA engine, a 2-deep link queue
feeding the wire, and a receive DMA engine feeding a bounded host
receive FIFO (overflow drops packets).  Each stage's occupancy is
computed when a packet enters it, so the card runs no processes: a
packet costs one pooled event at the end of its wire time, one at the
end of its receive DMA, and one at the end of its send DMA when the
sender asks for ``on_dma_done``.  Receive notification is polled or
interrupt-driven.
"""

from repro.network.adapter import Adapter
from repro.network.fabric import SwitchFabric
from repro.network.packet import Packet

__all__ = ["Adapter", "Packet", "SwitchFabric"]
