"""Unit tests for the notification bus and the fan-out it counts.

The bus counts what the fan-out pass of a replay shard hands it; the
scenarios replay a user's mutating session next to its other devices
through one replay shard (``tests.conftest.replay_outcome``).
"""

from __future__ import annotations

import numpy as np

from repro.backend.cluster import ClusterConfig
from repro.backend.notifications import NotificationBus
from repro.trace.records import ApiOperation
from tests.conftest import replay_outcome, script


def _replay(n_devices: int, processes: int):
    """User 1 uploads once from session 1 while ``n_devices - 1`` more
    sessions of the user are online; sessions go to unused processes
    first, so with as many processes as devices each has its own."""
    busy = script(1, 1, 1.0, 20.0, times=[5.0], operation=ApiOperation.UPLOAD,
                  node_id=10, volume_id=5, size_bytes=100, content_hash="h1")
    idle = [script(1, 1 + k, 1.0 + k, 20.0) for k in range(1, n_devices)]
    return replay_outcome(ClusterConfig(
        seed=0, api_machines=processes, processes_per_machine=1,
        metadata_shards=2, replay_shards=1, auth_failure_fraction=0.0,
        interrupted_upload_fraction=0.0), [busy, *idle])


class TestNotificationBus:
    def test_publish_reaches_all_subscribers_except_origin(self):
        shard, outcome = _replay(n_devices=3, processes=3)
        bus = shard.bus
        assert bus.published == 1
        assert bus.deliveries == 2
        assert bus.pushes == 2
        # Each other device's process pushed it; the publisher did not.
        codes, servers = outcome.storage.codes["server"]
        origin = servers[codes[0]]
        assert {totals.address.server: totals.notifications_pushed
                for totals in outcome.process_counters.values()} == {
            address.server: int(address.server != origin)
            for address, _ in outcome.process_counters.values()}

    def test_short_circuit_accounting(self):
        shard, _ = _replay(n_devices=2, processes=1)
        bus = shard.bus
        assert bus.short_circuits == 1
        assert bus.pushes == 1
        assert bus.published == 0

    def test_count_publishes_only_remote_fan_outs(self):
        bus = NotificationBus()
        bus.count(np.array([0, 2, 1]), np.array([1, 0, 3]), n_subscribers=4)
        assert (bus.published, bus.deliveries) == (2, 6)
        assert (bus.short_circuits, bus.pushes) == (3, 7)
