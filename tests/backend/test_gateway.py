"""Unit tests for the load balancer / system gateway."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.backend.gateway import LoadBalancer, ProcessAddress


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
        assert set(counts.values()) == {1}

    def test_sequential_sessions_reach_every_process(self):
        # Non-overlapping sessions tie on zero open connections every time;
        # the first one per process still goes to a never-used process.
        for seed in range(5):
            balancer = LoadBalancer(_processes(),
                                    rng=np.random.default_rng(seed))
            for _ in range(6):
                balancer.release(balancer.assign())
            assert set(balancer.total_assigned().values()) == {1}

    def test_release_frees_capacity(self):
        balancer = LoadBalancer(_processes(1, 2), rng=np.random.default_rng(0))
        a = balancer.assign()
        b = balancer.assign()
        balancer.release(a)
        c = balancer.assign()
        assert c == a  # the freed process is the least loaded again
        assert b in balancer._open_connections

    def test_release_unknown_or_idle_raises(self):
        balancer = LoadBalancer(_processes(1, 1))
        with pytest.raises(ValueError):
            balancer.release(ProcessAddress("m0", 0))

    def test_total_assigned_accumulates(self):
        balancer = LoadBalancer(_processes(2, 1), rng=np.random.default_rng(1))
        for _ in range(10):
            address = balancer.assign()
            balancer.release(address)
        totals = balancer.total_assigned()
        assert sum(totals.values()) == 10

    def test_imbalance_small_for_many_sessions(self):
        balancer = LoadBalancer(_processes(4, 2), rng=np.random.default_rng(2))
        assigned = []
        for _ in range(400):
            assigned.append(balancer.assign())
        assert balancer.imbalance() < 0.05

    def test_process_address_ordering_and_str(self):
        a = ProcessAddress("api0", 1)
        assert str(a) == "api0/1"
        assert a < ProcessAddress("api1", 0)


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
