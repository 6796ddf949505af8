"""The notification bus between API servers (Section 3.4.2).

Clients detect changes to their volumes by comparing generations on every
connection; but when two related clients are online simultaneously, API
servers push the change directly.  Internally U1 uses RabbitMQ (one server)
to communicate events between API servers: the API server that handled the
mutating request publishes an event, every subscribed API server receives it
and the ones holding a TCP connection to an affected client push the
notification.  When both clients are handled by the same API process the
bus is bypassed and the notification is delivered immediately.

:class:`NotificationBus` holds what that fan-out amounts to over a replay
shard: publishes, deliveries to subscribed processes, client pushes and
short-circuited local deliveries.  The split of each mutation's fellow
sessions into local and remote ones is computed after dispatch, in one
interval pass (:meth:`repro.backend.api_server.SessionRegistry.fan_out`),
and counted here with :meth:`NotificationBus.count`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NotificationBus"]


@dataclass
class NotificationBus:
    """A RabbitMQ stand-in's counters."""

    #: Mutations published on the queue (those with a remote fellow session).
    published: int = 0
    #: Publishes received by a subscribed process other than the publisher.
    deliveries: int = 0
    #: Client sessions pushed a notification, through the queue or not.
    pushes: int = 0
    #: Pushes delivered by the publishing process itself, bypassing the queue.
    short_circuits: int = 0

    def count(self, local: np.ndarray, remote: np.ndarray,
              n_subscribers: int) -> None:
        """Count the fan-out of mutations with ``local``/``remote`` fellow
        sessions each, on a bus with ``n_subscribers`` API processes.

        A mutation with a remote fellow session is published once and
        delivered to every subscriber but its publisher; local fellow
        sessions are pushed directly (the footnote-4 optimisation).
        """
        published = int(np.count_nonzero(remote))
        short_circuits = int(local.sum())
        self.published += published
        self.deliveries += published * (n_subscribers - 1)
        self.short_circuits += short_circuits
        self.pushes += short_circuits + int(remote.sum())
