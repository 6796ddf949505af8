"""The notification bus between API servers (Section 3.4.2).

Clients detect changes to their volumes by comparing generations on every
connection; but when two related clients are online simultaneously, API
servers push the change directly.  Internally U1 uses RabbitMQ (one server)
to communicate events between API servers: the API server that handled the
mutating request publishes an event, every subscribed API server receives it
and the ones holding a TCP connection to an affected client push the
notification.  When both clients are handled by the same API process the
bus is bypassed and the notification is delivered immediately.

:class:`NotificationBus` reproduces that fan-out and keeps counters so tests
can verify the short-circuit behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

__all__ = ["Notification", "NotificationBus", "Subscriber"]


class Notification(NamedTuple):
    """An event published by an API server after a mutating operation.

    A named tuple, so a publish builds it in one C-level tuple allocation
    instead of a frozen dataclass's per-field ``object.__setattr__``.
    """

    timestamp: float
    origin_server: str
    origin_process: int
    user_ids: tuple[int, ...]
    volume_id: int
    kind: str

#: A subscriber callback receives a notification and returns the number of
#: client sessions it pushed the event to.
Subscriber = Callable[[Notification], int]


@dataclass
class _Subscription:
    name: str
    callback: Subscriber
    delivered: int = 0


@dataclass
class NotificationBus:
    """A minimal RabbitMQ stand-in: publish/subscribe with counters."""

    _subscriptions: list[_Subscription] = field(default_factory=list)
    published: int = 0
    deliveries: int = 0
    pushes: int = 0
    short_circuits: int = 0

    def subscribe(self, name: str, callback: Subscriber) -> None:
        """Register an API server process on the bus."""
        self._subscriptions.append(_Subscription(name=name, callback=callback))

    def subscribers(self) -> list[str]:
        """Names of the registered subscribers."""
        return [s.name for s in self._subscriptions]

    def publish(self, notification: Notification,
                exclude: str | None = None) -> int:
        """Publish an event to every subscriber (except ``exclude``).

        ``exclude`` is the name of the publishing API process: when the
        affected clients are connected to the same process, the notification
        is delivered locally without travelling through the queue (the
        footnote-4 optimisation); callers account for that separately via
        :meth:`record_short_circuit`.

        Returns the total number of client pushes performed by subscribers.
        """
        self.published += 1
        total_pushes = 0
        for subscription in self._subscriptions:
            if exclude is not None and subscription.name == exclude:
                continue
            self.deliveries += 1
            pushed = subscription.callback(notification)
            subscription.delivered += 1
            total_pushes += pushed
        self.pushes += total_pushes
        return total_pushes

    def record_short_circuit(self, count: int = 1) -> None:
        """Account for notifications delivered without using the queue."""
        self.short_circuits += count
        self.pushes += count

