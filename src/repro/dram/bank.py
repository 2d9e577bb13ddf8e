"""Bank and channel state tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dram.request import Request
from repro.dram.timing import DramTiming


class BankState:
    """Open-row and readiness state of one bank (slotted)."""

    __slots__ = ("open_row", "ready_at")

    def __init__(
        self, open_row: Optional[int] = None, ready_at: float = 0.0
    ) -> None:
        self.open_row = open_row
        self.ready_at = ready_at

    def prep_time(self, row: int, timing: DramTiming) -> Tuple[float, bool]:
        """(preparation latency in ns, row hit?) for accessing ``row``."""
        if self.open_row == row:
            return 0.0, True
        if self.open_row is None:
            return timing.t_rcd_ns, False
        return timing.t_rp_ns + timing.t_rcd_ns, False


@dataclass
class ChannelState:
    """Data-bus and bank state of one channel."""

    index: int
    timing: DramTiming
    bus_free_at: float = 0.0
    next_refresh_ns: float = 0.0
    banks: Dict[int, BankState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.next_refresh_ns = self.timing.t_refi_ns

    def refresh_if_due(self, now: float) -> bool:
        """Perform an all-bank refresh when the interval elapsed.

        Returns True if a refresh was issued: the bus stalls for
        ``t_rfc`` and every row buffer closes.
        """
        if not self.timing.refresh_enabled or now < self.next_refresh_ns:
            return False
        start = max(now, self.bus_free_at)
        self.bus_free_at = start + self.timing.t_rfc_ns
        for index in sorted(self.banks):
            bank = self.banks[index]
            bank.open_row = None
            bank.ready_at = max(bank.ready_at, self.bus_free_at)
        while self.next_refresh_ns <= now:
            self.next_refresh_ns += self.timing.t_refi_ns
        return True

    def bank(self, bank_index: int) -> BankState:
        state = self.banks.get(bank_index)
        if state is None:
            state = BankState()
            self.banks[bank_index] = state
        return state

    def earliest_data_start(self, request: Request, now: float) -> float:
        """When this request's data burst could start (no side effects).

        Bank preparation (precharge/activate) proceeds in the background
        as soon as the bank is free, so a miss in an idle bank can often
        stream its data with no bus gap — bank-level parallelism.
        """
        bank = self.bank(request.bank)
        prep, _ = bank.prep_time(request.row, self.timing)
        prep_start = max(bank.ready_at, request.arrival_ns)
        return max(now, prep_start + prep)

    def dispatch(self, request: Request, now: float) -> float:
        """Issue the request; returns its completion time.

        Updates bank open-row state and bus occupancy. The burst is
        scheduled at ``earliest_data_start``; the core sees the data one
        CAS latency after the burst completes.
        """
        row = request.row
        bank = self.banks.get(request.bank) or self.bank(request.bank)
        timing = self.timing
        # BankState.prep_time and earliest_data_start inlined: the same
        # float expressions, so the same timeline.
        open_row = bank.open_row
        if open_row == row:
            prep, hit = 0.0, True
        elif open_row is None:
            prep, hit = timing.t_rcd_ns, False
        else:
            prep, hit = timing.t_rp_ns + timing.t_rcd_ns, False
        burst_end = (
            max(now, max(bank.ready_at, request.arrival_ns) + prep)
            + timing.t_burst_ns
        )
        self.bus_free_at = burst_end
        bank.open_row = row
        bank.ready_at = burst_end
        request.row_hit = hit
        completion = request.completion_ns = burst_end + timing.t_cas_ns
        return completion

    def is_row_hit(self, request: Request) -> bool:
        """Whether the request would hit the currently open row."""
        return self.bank(request.bank).open_row == request.row
