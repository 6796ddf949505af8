"""Unit tests for the notification bus."""

from __future__ import annotations

from repro.backend.notifications import Notification, NotificationBus


def _notification(user_ids=(1,)) -> Notification:
    return Notification(timestamp=0.0, origin_server="api0", origin_process=0,
                        user_ids=tuple(user_ids), volume_id=5, kind="Unlink")


class TestNotificationBus:
    def test_publish_reaches_all_subscribers_except_origin(self):
        bus = NotificationBus()
        received = []
        bus.subscribe("api0/0", lambda n: (received.append(("a", n)), 1)[1])
        bus.subscribe("api1/0", lambda n: (received.append(("b", n)), 2)[1])
        pushed = bus.publish(_notification(), exclude="api0/0")
        assert pushed == 2
        assert [name for name, _ in received] == ["b"]
        assert bus.published == 1
        assert bus.deliveries == 1
        assert bus.pushes == 2

    def test_publish_without_exclusion(self):
        bus = NotificationBus()
        bus.subscribe("x", lambda n: 1)
        bus.subscribe("y", lambda n: 0)
        assert bus.publish(_notification()) == 1
        assert {s.name: s.delivered for s in bus._subscriptions} == {"x": 1, "y": 1}

    def test_short_circuit_accounting(self):
        bus = NotificationBus()
        bus.record_short_circuit(3)
        assert bus.short_circuits == 3
        assert bus.pushes == 3
        assert bus.published == 0

    def test_subscribers_listing(self):
        bus = NotificationBus()
        bus.subscribe("api0/0", lambda n: 0)
        assert bus.subscribers() == ["api0/0"]

    def test_notification_affects(self):
        notification = _notification(user_ids=(3, 4))
        assert 3 in notification.user_ids
        assert 5 not in notification.user_ids
