"""Memory request records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Request:
    """One 64-byte read transaction in flight.

    Attributes
    ----------
    req_id:
        Monotonic id (also the FCFS tiebreaker).
    core:
        Issuing core index.
    channel / bank / row:
        Decoded address coordinates.
    arrival_ns:
        Time the request entered the controller queue.
    completion_ns:
        Time data was returned to the core (set at dispatch).
    row_hit:
        Whether the access hit the open row (set at dispatch).
    """

    req_id: int
    core: int
    channel: int
    bank: int
    row: int
    arrival_ns: float
    is_write: bool = False
    completion_ns: Optional[float] = None
    row_hit: Optional[bool] = None
