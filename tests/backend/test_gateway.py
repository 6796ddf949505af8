"""Unit tests for the load balancer / system gateway.

The balancer names processes by index; the address-keyed balancer it
replaced is kept in ``reference_gateway.py`` as its oracle.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.backend.gateway import LoadBalancer, ProcessAddress
from tests.backend.reference_gateway import AddressBalancer


def _processes(n_machines=3, per_machine=2) -> list[ProcessAddress]:
    return [ProcessAddress(server=f"m{i}", process=p)
            for i in range(n_machines) for p in range(per_machine)]


class TestLoadBalancer:
    def test_requires_processes(self):
        with pytest.raises(ValueError):
            LoadBalancer([])

    def test_assign_picks_least_loaded(self):
        balancer = LoadBalancer(_processes(), rng=np.random.default_rng(0))
        first_round = [balancer.assign() for _ in range(6)]
        # Every process got exactly one session before any got a second one.
        assert len(set(first_round)) == 6
        counts = balancer._open_connections
        assert set(counts) == {1}

    def test_sequential_sessions_reach_every_process(self):
        # Non-overlapping sessions tie on zero open connections every time;
        # the first one per process still goes to a never-used process.
        for seed in range(5):
            balancer = LoadBalancer(_processes(),
                                    rng=np.random.default_rng(seed))
            assigned = Counter()
            for _ in range(6):
                index = balancer.assign()
                assigned[index] += 1
                balancer.release(index)
            balancer.absorb_totals(assigned)
            assert set(balancer.total_assigned().values()) == {1}

    def test_release_frees_capacity(self):
        balancer = LoadBalancer(_processes(1, 2), rng=np.random.default_rng(0))
        a = balancer.assign()
        b = balancer.assign()
        balancer.release(a)
        c = balancer.assign()
        assert c == a  # the freed process is the least loaded again
        assert balancer._open_connections[b] == 1

    def test_release_unknown_or_idle_raises(self):
        balancer = LoadBalancer(_processes(1, 1))
        with pytest.raises(ValueError):
            balancer.release(0)
        with pytest.raises(ValueError):
            balancer.absorb_totals({1: 1})

    def test_total_assigned_accumulates(self):
        balancer = LoadBalancer(_processes(2, 1), rng=np.random.default_rng(1))
        assigned = Counter()
        for _ in range(10):
            index = balancer.assign()
            assigned[index] += 1
            balancer.release(index)
        balancer.absorb_totals(assigned)
        totals = balancer.total_assigned()
        assert sum(totals.values()) == 10

    def test_imbalance_small_for_many_sessions(self):
        balancer = LoadBalancer(_processes(4, 2), rng=np.random.default_rng(2))
        assigned = []
        for _ in range(400):
            assigned.append(balancer.assign())
        balancer.absorb_totals(Counter(assigned))
        assert balancer.imbalance() < 0.05

    def test_process_address_ordering_and_str(self):
        a = ProcessAddress("api0", 1)
        assert str(a) == "api0/1"
        assert a < ProcessAddress("api1", 0)


@st.composite
def _sequences(draw):
    """A fleet of 1-24 processes and up to 400 operations: an open (None)
    or the close of the k-th connection still held."""
    n_processes = draw(st.integers(1, 24))
    operations = draw(st.lists(
        st.one_of(st.none(), st.integers(0, 10_000)), max_size=400))
    return n_processes, operations, draw(st.integers(0, 2**32 - 1))


class TestAgainstAddressBalancer:
    @settings(max_examples=300, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(_sequences())
    def test_same_choices_and_draws(self, sequence):
        self._check(*sequence)

    def test_long_sequences_over_every_fleet_size(self):
        rng = np.random.default_rng(34)
        for n_processes in range(1, 25):
            for _ in range(3):
                # Opens outnumber closes two to one: connections pile up.
                operations = [None if rng.random() < 2 / 3
                              else int(rng.integers(10_000))
                              for _ in range(400)]
                self._check(n_processes, operations,
                            int(rng.integers(2**32)))

    @staticmethod
    def _check(n_processes: int, operations: list, seed: int) -> None:
        fleet = _processes(n_processes, 1)
        balancer = LoadBalancer(fleet, rng=np.random.default_rng(seed))
        oracle = AddressBalancer(fleet, rng=np.random.default_rng(seed))
        held: list[int] = []
        for operation in operations:
            if operation is None or not held:
                index = balancer.assign()
                assert fleet[index] == oracle.assign()
                held.append(index)
            else:
                index = held.pop(operation % len(held))
                balancer.release(index)
                oracle.release(fleet[index])
        assert balancer._open_connections == [
            oracle._open_connections[address] for address in fleet]
        pools = (balancer._pool, oracle._pool)
        assert [(len(pool._uniform), pool._ui) for pool in pools] == [
            (len(oracle._pool._uniform), oracle._pool._ui)] * 2


class TestProcessAddress:
    def test_hash_and_equality_are_by_value(self):
        a, b = ProcessAddress("api0", 1), ProcessAddress(server="api0", process=1)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != ProcessAddress("api0", 2)
        assert a != ProcessAddress("api1", 1)
        assert {a: "x"}[b] == "x"
        assert len({a, b, ProcessAddress("api0", 2)}) == 2

    def test_fields_order_and_text(self):
        a = ProcessAddress("api3", 7)
        assert (a.server, a.process) == ("api3", 7)
        assert str(a) == "api3/7"
        assert repr(a) == "ProcessAddress(server='api3', process=7)"

    def test_ordering_is_by_server_then_process(self):
        addresses = [ProcessAddress("m1", 0), ProcessAddress("m0", 2),
                     ProcessAddress("m0", 10), ProcessAddress("m0", 1)]
        assert sorted(addresses) == [
            ProcessAddress("m0", 1), ProcessAddress("m0", 2),
            ProcessAddress("m0", 10), ProcessAddress("m1", 0)]

    def test_pickle_round_trip(self):
        a = ProcessAddress("api2", 3)
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is ProcessAddress
        assert copy == a and hash(copy) == hash(a) and str(copy) == "api2/3"
