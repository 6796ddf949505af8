"""The system gateway / load balancer (Section 3.4).

The visible endpoint of U1 is an HAProxy-based load balancer; a new session
"starts in the least loaded machine and lives in the same node until it
finishes", which keeps every event of a user session strictly sequential on
one API process.  :class:`LoadBalancer` reproduces the least-connections
assignment.  Like HAProxy's ``leastconn``, which rotates among equally
loaded servers so that all of them are used, it sends sessions to
processes that have never had one before it breaks a tie at random.

The balancer names processes by their index in its process list and keeps
plain lists: open connections per process, and the processes bucketed by
open-connection count.  A replay shard's dispatch loop calls
:meth:`LoadBalancer.assign` at every session open and
:meth:`LoadBalancer.release` at every close, in timeline order, because a
tie draws from the shard's random stream.  The loop records the process
each session was assigned, so the shard counts the assignments per process
after it; the cluster's balancer only sums those counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.util.rngpool import RngPool

__all__ = ["ProcessAddress", "LoadBalancer"]


class ProcessAddress(NamedTuple):
    """Identity of one API server process (machine name + process number).

    A named tuple, so hashing, equality and ``(server, process)`` ordering
    run in C.
    """

    server: str
    process: int

    def __str__(self) -> str:
        return f"{self.server}/{self.process}"


class LoadBalancer:
    """Least-connections assignment of sessions to API server processes."""

    __slots__ = ("_processes", "_pool", "_open_connections",
                 "_total_assigned", "_buckets", "_pos", "_min_count",
                 "_unused")

    def __init__(self, processes: list[ProcessAddress],
                 rng: np.random.Generator | None = None):
        if not processes:
            raise ValueError("at least one API process is required")
        self._processes = list(processes)
        n = len(self._processes)
        self._pool = RngPool(rng or np.random.default_rng(0))
        self._open_connections = [0] * n
        self._total_assigned = [0] * n
        # Processes bucketed by open-connection count (bucket k holds the
        # processes with k open connections), each process's position in
        # its bucket alongside: a move is an O(1) swap-with-last removal and
        # an append, and a random tie-break an O(1) index draw.
        self._buckets: list[list[int]] = [list(range(n))]
        self._pos = list(range(n))
        self._min_count = 0
        # Processes never assigned a session, in list order; they have no
        # open connection, so they are always among the least loaded.
        self._unused = list(range(n))

    @property
    def processes(self) -> list[ProcessAddress]:
        """All the API processes behind the balancer."""
        return list(self._processes)

    def assign(self) -> int:
        """Index of the process with the fewest open connections, which
        gets one more.

        Ties go to a never-used process first (in list order of the draw),
        then at random among the least loaded.
        """
        buckets = self._buckets
        low = self._min_count
        while not buckets[low]:
            low += 1
        self._min_count = low
        unused = self._unused
        candidates = unused or buckets[low]
        if len(candidates) == 1:
            choice = candidates[0]
        else:
            choice = candidates[self._pool.integers(len(candidates))]
        if unused:
            unused.remove(choice)
        pos = self._pos
        count = self._open_connections[choice]
        self._open_connections[choice] = count + 1
        bucket = buckets[count]
        last = bucket.pop()
        if last != choice:
            i = pos[choice]
            bucket[i] = last
            pos[last] = i
        if count + 1 == len(buckets):
            buckets.append([])
        target = buckets[count + 1]
        pos[choice] = len(target)
        target.append(choice)
        return choice

    def release(self, index: int) -> None:
        """Close one connection previously assigned to process ``index``."""
        count = self._open_connections[index]
        if count <= 0:
            raise ValueError(f"no open connections on {self._processes[index]}")
        self._open_connections[index] = count - 1
        pos = self._pos
        bucket = self._buckets[count]
        last = bucket.pop()
        if last != index:
            i = pos[index]
            bucket[i] = last
            pos[last] = i
        target = self._buckets[count - 1]
        pos[index] = len(target)
        target.append(index)
        if count - 1 < self._min_count:
            self._min_count = count - 1

    def absorb_totals(self, totals: dict[int, int]) -> None:
        """Add sessions assigned per process index to the totals.

        The sharded replay engine runs one balancer per replay shard (each
        over its slice of processes) and counts its assignments after the
        run; the cluster's balancer sums them here, keyed by the index in
        its own process list, so cluster-level statistics
        (:meth:`total_assigned`, :meth:`imbalance`) describe the whole
        fleet.
        """
        for index, count in totals.items():
            if not 0 <= index < len(self._total_assigned):
                raise ValueError(f"unknown process index {index}")
            self._total_assigned[index] += count

    def total_assigned(self) -> dict[ProcessAddress, int]:
        """Sessions assigned to each process, as absorbed."""
        return dict(zip(self._processes, self._total_assigned))

    def imbalance(self) -> float:
        """Coefficient of variation of total assignments across processes."""
        counts = np.asarray(self._total_assigned, dtype=float)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)
