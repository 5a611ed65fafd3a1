"""Unit tests for buses, multi-bus routing and arbitration."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.interconnect import (
    Bus,
    Crossbar,
    FixedPriorityArbiter,
    LeastRecentlyGrantedArbiter,
    MultiBus,
    RoundRobinArbiter,
    WeightedArbiter,
    make_arbiter,
)


class TestArbiters:
    def test_round_robin_rotates(self):
        arbiter = RoundRobinArbiter(4)
        grants = [arbiter.select([0, 1, 2, 3]) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_skips_absent(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.select([2, 3]) == 2
        assert arbiter.select([0, 3]) == 3
        assert arbiter.select([0, 1]) == 0

    def test_fixed_priority(self):
        arbiter = FixedPriorityArbiter(4)
        assert arbiter.select([3, 1, 2]) == 1

    def test_least_recently_granted(self):
        arbiter = LeastRecentlyGrantedArbiter(3)
        assert arbiter.select([0, 1, 2]) == 0
        assert arbiter.select([0, 1, 2]) == 1
        assert arbiter.select([0, 1, 2]) == 2
        assert arbiter.select([0, 2]) == 0

    def test_weighted_uses_urgency(self):
        urgency = {0: 1.0, 1: 5.0, 2: 3.0}
        arbiter = WeightedArbiter(3, urgency.__getitem__)
        assert arbiter.select([0, 1, 2]) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(SimulationError):
            RoundRobinArbiter(2).select([])

    def test_out_of_range_candidate_rejected(self):
        with pytest.raises(SimulationError):
            RoundRobinArbiter(2).select([5])

    def test_make_arbiter(self):
        assert isinstance(make_arbiter("round-robin", 2), RoundRobinArbiter)
        with pytest.raises(ConfigurationError):
            make_arbiter("bogus", 2)


class TestBus:
    def test_uncontended_grant_same_cycle(self):
        bus = Bus(requester_count=2, width_bytes=32, latency=2)
        request = bus.request(0, 0x100, now=5)
        granted = bus.step(5)
        assert granted is request
        assert request.granted_at == 5
        assert request.wait_cycles == 0

    def test_transfer_occupancy(self):
        # 64 B line over a 32 B bus: two busy cycles per transaction.
        bus = Bus(requester_count=2)
        assert bus.transfer_cycles(64) == 2
        bus.request(0, 0x100, now=0)
        bus.request(1, 0x200, now=0)
        first = bus.step(0)
        assert first.requester == 0
        assert bus.step(1) is None  # still transferring
        second = bus.step(2)
        assert second.requester == 1
        assert second.wait_cycles == 2

    def test_contention_statistics(self):
        bus = Bus(requester_count=4)
        for requester in range(4):
            bus.request(requester, 0x100 * requester, now=0)
        for cycle in range(8):
            bus.step(cycle)
        assert bus.stats.transactions == 4
        # waits: 0, 2, 4, 6 cycles
        assert bus.stats.wait_cycles == 12
        assert bus.stats.mean_wait == pytest.approx(3.0)

    def test_round_robin_fairness(self):
        bus = Bus(requester_count=2)
        for _ in range(10):
            bus.request(0, 0x100, now=0)
            bus.request(1, 0x200, now=0)
        grants = []
        cycle = 0
        while bus.pending_requests:
            granted = bus.step(cycle)
            if granted:
                grants.append(granted.requester)
            cycle += 1
        assert grants[:6] == [0, 1, 0, 1, 0, 1]

    def test_flush_requester_drops_queued(self):
        bus = Bus(requester_count=2)
        bus.request(0, 0x100, now=0)
        bus.request(0, 0x140, now=0)
        assert bus.flush_requester(0) == 2
        assert bus.pending_requests == 0

    def test_utilization(self):
        bus = Bus(requester_count=1)
        bus.request(0, 0x100, now=0)
        for cycle in range(10):
            bus.step(cycle)
        assert bus.stats.utilization(10) == pytest.approx(0.2)

    def test_occupancy_charged_at_grant(self):
        # 64 B over an 8 B bus: the whole 8-cycle occupancy is charged
        # on the grant cycle; a run ending mid-transfer subtracts the
        # part a stepped bus never reached.
        bus = Bus(requester_count=1, width_bytes=8)
        bus.request(0, 0x100, now=3)
        bus.step(3)
        assert bus.stats.busy_cycles == 8
        assert bus.busy_overhang(5) == 6
        assert bus.busy_overhang(11) == 0

    def test_invalid_requester_rejected(self):
        bus = Bus(requester_count=1)
        with pytest.raises(SimulationError):
            bus.request(3, 0x0, now=0)


class TestMultiBus:
    def test_parity_routing(self):
        # Section VI-B: even lines on bus 0, odd lines on bus 1.
        interconnect = MultiBus(requester_count=2, bus_count=2)
        assert interconnect.bank_of(0x000) == 0
        assert interconnect.bank_of(0x040) == 1
        assert interconnect.bank_of(0x080) == 0

    def test_double_bus_parallel_grants(self):
        interconnect = MultiBus(requester_count=2, bus_count=2)
        interconnect.request(0, 0x000, now=0)  # even line
        interconnect.request(1, 0x040, now=0)  # odd line
        grants = interconnect.step(0)
        assert len(grants) == 2

    def test_single_bus_serialises(self):
        interconnect = MultiBus(requester_count=2, bus_count=1)
        interconnect.request(0, 0x000, now=0)
        interconnect.request(1, 0x040, now=0)
        assert len(interconnect.step(0)) == 1

    def test_requires_power_of_two_buses(self):
        with pytest.raises(ConfigurationError):
            MultiBus(requester_count=2, bus_count=3)

    def test_flush_spans_buses(self):
        interconnect = MultiBus(requester_count=2, bus_count=2)
        interconnect.request(0, 0x000, now=0)
        interconnect.request(0, 0x040, now=0)
        assert interconnect.flush_requester(0) == 2

    def test_totals(self):
        interconnect = MultiBus(requester_count=2, bus_count=2)
        interconnect.request(0, 0x000, now=0)
        interconnect.request(1, 0x040, now=0)
        interconnect.step(0)
        assert interconnect.total_transactions() == 2
        assert interconnect.total_wait_cycles() == 0


class TestCrossbar:
    def test_is_multibus_compatible(self):
        crossbar = Crossbar(requester_count=4, bank_count=4)
        assert crossbar.bus_count == 4
        assert crossbar.is_crossbar
        crossbar.request(0, 0x000, now=0)
        assert len(crossbar.step(0)) == 1
