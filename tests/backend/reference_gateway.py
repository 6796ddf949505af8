"""The address-keyed load balancer, kept as the gateway's oracle.

:class:`repro.backend.gateway.LoadBalancer` works on process indices with
plain lists.  This is the dict-based structure it replaced: processes
bucketed by open-connection count, each bucket a list plus a position map
(swap-with-last removal), never-used processes first, ties drawn from the
shared :class:`~repro.util.rngpool.RngPool`.  ``test_gateway.py`` asserts
that both pick the same process on every assignment and draw the same
number of uniforms.
"""

from __future__ import annotations

import numpy as np

from repro.backend.gateway import ProcessAddress
from repro.util.rngpool import RngPool

__all__ = ["AddressBalancer"]


class AddressBalancer:
    """The address-keyed least-connections balancer: the oracle of
    :class:`repro.backend.gateway.LoadBalancer`."""

    def __init__(self, processes: list[ProcessAddress],
                 rng: np.random.Generator | None = None):
        if not processes:
            raise ValueError("at least one API process is required")
        self._processes = list(processes)
        self._rng = rng or np.random.default_rng(0)
        self._pool = RngPool(self._rng)
        self._open_connections: dict[ProcessAddress, int] = {p: 0 for p in self._processes}
        self._total_assigned: dict[ProcessAddress, int] = {p: 0 for p in self._processes}
        # Incremental least-connections structure: processes bucketed by
        # open-connection count, each bucket a list plus a position map so
        # membership moves are O(1) swap-removes and a random tie-break is an
        # O(1) index draw — assign/release never scan the process list.
        self._buckets: dict[int, list[ProcessAddress]] = {0: list(self._processes)}
        self._pos: dict[ProcessAddress, int] = {
            p: i for i, p in enumerate(self._processes)}
        self._min_count = 0
        # Processes never assigned a session; they have no open connection,
        # so they are always among the least loaded.
        self._unused = list(self._processes)

    @property
    def processes(self) -> list[ProcessAddress]:
        """All the API processes behind the balancer."""
        return list(self._processes)

    def _move(self, address: ProcessAddress, old: int, new: int) -> None:
        bucket = self._buckets.get(old)
        if bucket is not None:
            i = self._pos[address]
            last = bucket[-1]
            bucket[i] = last
            self._pos[last] = i
            bucket.pop()
            if not bucket and old == self._min_count:
                # The minimum moved; the next occupied bucket is at most
                # one step away on assignment, further on release.
                del self._buckets[old]
        target = self._buckets.get(new)
        if target is None:
            self._buckets[new] = [address]
            self._pos[address] = 0
        else:
            self._pos[address] = len(target)
            target.append(address)
        if new < self._min_count:
            self._min_count = new

    def assign(self) -> ProcessAddress:
        """Pick the process with the fewest open connections.

        Ties go to a never-used process first, then at random.
        """
        while not self._buckets.get(self._min_count):
            self._min_count += 1
        candidates = self._unused or self._buckets[self._min_count]
        if len(candidates) == 1:
            choice = candidates[0]
        else:
            choice = candidates[self._pool.integers(len(candidates))]
        if self._unused:
            self._unused.remove(choice)
        count = self._open_connections[choice]
        self._open_connections[choice] = count + 1
        self._total_assigned[choice] += 1
        self._move(choice, count, count + 1)
        return choice

    def release(self, address: ProcessAddress) -> None:
        """Close one connection previously assigned to ``address``."""
        current = self._open_connections.get(address, 0)
        if current <= 0:
            raise ValueError(f"no open connections on {address}")
        self._open_connections[address] = current - 1
        self._move(address, current, current - 1)
