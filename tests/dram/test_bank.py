"""Bank/channel state transitions."""

import dataclasses

import pytest

from repro.dram.bank import BankState, ChannelState
from repro.dram.request import Request
from repro.dram.timing import DDR4_3200


def req(req_id=0, channel=0, bank=0, row=0, arrival=0.0, core=0):
    return Request(
        req_id=req_id,
        core=core,
        channel=channel,
        bank=bank,
        row=row,
        arrival_ns=arrival,
    )


@pytest.fixture()
def channel() -> ChannelState:
    return ChannelState(index=0, timing=DDR4_3200)


class TestBankState:
    def test_closed_bank_pays_activation(self):
        bank = BankState()
        prep, hit = bank.prep_time(5, DDR4_3200)
        assert prep == DDR4_3200.t_rcd_ns
        assert not hit

    def test_open_row_hit_is_free(self):
        bank = BankState(open_row=5)
        prep, hit = bank.prep_time(5, DDR4_3200)
        assert prep == 0.0
        assert hit

    def test_conflict_pays_precharge_and_activation(self):
        bank = BankState(open_row=4)
        prep, hit = bank.prep_time(5, DDR4_3200)
        assert prep == DDR4_3200.t_rp_ns + DDR4_3200.t_rcd_ns
        assert not hit


class TestChannelDispatch:
    def test_first_access_opens_row(self, channel):
        r = req(row=7)
        completion = channel.dispatch(r, 0.0)
        assert channel.bank(0).open_row == 7
        assert r.row_hit is False
        assert completion == pytest.approx(
            DDR4_3200.t_rcd_ns + DDR4_3200.t_burst_ns + DDR4_3200.t_cas_ns
        )

    def test_second_access_same_row_hits(self, channel):
        channel.dispatch(req(0, row=7), 0.0)
        r = req(1, row=7, arrival=1.0)
        channel.dispatch(r, channel.bus_free_at)
        assert r.row_hit is True

    def test_conflict_recorded_as_miss(self, channel):
        channel.dispatch(req(0, row=7), 0.0)
        r = req(1, row=9, arrival=1.0)
        channel.dispatch(r, channel.bus_free_at)
        assert r.row_hit is False

    def test_bus_occupied_per_burst(self, channel):
        channel.dispatch(req(0, row=7), 0.0)
        first_free = channel.bus_free_at
        channel.dispatch(req(1, row=7, arrival=0.0), first_free)
        assert channel.bus_free_at == pytest.approx(
            first_free + DDR4_3200.t_burst_ns
        )

    def test_bank_parallelism_hides_prep(self, channel):
        """A miss in another bank prepared in the background streams its
        data with no extra bus gap."""
        channel.dispatch(req(0, bank=0, row=7), 0.0)
        t = channel.bus_free_at
        # Bank 1 was idle the whole time; its activation overlapped.
        start = channel.earliest_data_start(req(1, bank=1, row=3), t)
        assert start == pytest.approx(
            max(t, DDR4_3200.t_rcd_ns)
        )

    def test_same_bank_conflict_not_hidden(self, channel):
        channel.dispatch(req(0, bank=0, row=7), 0.0)
        t = channel.bus_free_at
        start = channel.earliest_data_start(req(1, bank=0, row=9, arrival=0.5), t)
        assert start >= t + DDR4_3200.row_miss_penalty_ns - 1e-9

    def test_is_row_hit(self, channel):
        channel.dispatch(req(0, bank=2, row=7), 0.0)
        assert channel.is_row_hit(req(1, bank=2, row=7))
        assert not channel.is_row_hit(req(2, bank=2, row=8))

    def test_completion_includes_cas(self, channel):
        r = req(0, row=7)
        completion = channel.dispatch(r, 0.0)
        assert r.completion_ns == completion
        assert completion > channel.bus_free_at  # CAS after burst

    @pytest.mark.parametrize(
        "open_row", (None, 7, 9), ids=("miss", "hit", "conflict")
    )
    def test_dispatch_times_burst_at_earliest_data_start(self, open_row):
        """dispatch inlines prep_time and earliest_data_start: its burst
        starts where earliest_data_start says, with the hit flag of
        prep_time. tRP differs from tRCD here, so a miss and a conflict
        cannot be confused (DDR4-3200 has tRP == tRCD)."""
        timing = dataclasses.replace(DDR4_3200, t_rp_ns=11.0, t_rcd_ns=17.0)
        channel = ChannelState(index=0, timing=timing)
        if open_row is not None:
            channel.dispatch(req(0, bank=3, row=open_row), 0.0)
        now = channel.bus_free_at + 2.5
        r = req(1, bank=3, row=7, arrival=1.0)
        start = channel.earliest_data_start(r, now)
        _, hit = channel.bank(3).prep_time(7, timing)
        completion = channel.dispatch(r, now)
        assert r.row_hit is hit is (open_row == 7)
        assert channel.bus_free_at == start + timing.t_burst_ns
        assert completion == start + timing.t_burst_ns + timing.t_cas_ns
