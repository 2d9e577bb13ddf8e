"""Memory request records."""

from __future__ import annotations

from typing import Optional


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

    Slotted, which a ``dataclass`` cannot be with defaults before
    Python 3.10. Requests compare by identity: each is one transaction.
    """

    __slots__ = (
        "req_id", "core", "channel", "bank", "row", "arrival_ns",
        "is_write", "completion_ns", "row_hit",
    )

    def __init__(
        self,
        req_id: int,
        core: int,
        channel: int,
        bank: int,
        row: int,
        arrival_ns: float,
        is_write: bool = False,
        completion_ns: Optional[float] = None,
        row_hit: Optional[bool] = None,
    ) -> None:
        self.req_id = req_id
        self.core = core
        self.channel = channel
        self.bank = bank
        self.row = row
        self.arrival_ns = arrival_ns
        self.is_write = is_write
        self.completion_ns = completion_ns
        self.row_hit = row_hit
