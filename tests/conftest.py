"""Shared builders for small hand-checkable network scenarios."""
from __future__ import annotations

from rlnoc.model import Flow, Flowset, NetworkTopology, Ring


def perimeter_ring8() -> NetworkTopology:
    """A 2x4 grid with its single 8-switch perimeter ring.

    Switch ids:  0 1 2 3
                 4 5 6 7
    Ring order (clockwise): 0, 1, 2, 3, 7, 6, 5, 4.
    """
    ring = Ring(ring_id=0, switches=(0, 1, 2, 3, 7, 6, 5, 4))
    return NetworkTopology(rows=2, cols=4, rings=(ring,))


def multi_ring_2x4() -> NetworkTopology:
    """2x4 grid with the perimeter ring plus two short rings through switch 1.

    Ring 0: full perimeter (0,1,2,3,7,6,5,4).
    Ring 1: inner rectangle (1,2,6,5).
    Ring 2: vertical pair (1,5).
    """
    rings = (
        Ring(ring_id=0, switches=(0, 1, 2, 3, 7, 6, 5, 4)),
        Ring(ring_id=1, switches=(1, 2, 6, 5)),
        Ring(ring_id=2, switches=(1, 5)),
    )
    return NetworkTopology(rows=2, cols=4, rings=rings)


def make_flow(
    flow_id: int,
    src: int,
    dst: int,
    *,
    period: int = 1000,
    deadline: int | None = None,
    length: int = 8,
    jitter: int = 0,
    maxloop: int | None = None,
) -> Flow:
    return Flow(
        flow_id=flow_id,
        period=period,
        deadline=period if deadline is None else deadline,
        length=length,
        jitter=jitter,
        src=src,
        dst=dst,
        maxloop=maxloop,
    )


def single_flow_ring8(length: int = 8, maxloop: int = 0) -> Flowset:
    """One flow on the 2x4 perimeter ring: core 1 -> core 7, 4-switch path."""
    top = perimeter_ring8()
    flow = make_flow(0, 1, 7, length=length, maxloop=maxloop)
    return Flowset(top, [flow])
