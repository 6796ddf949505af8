"""Client events: the interface between the workload and the back-end.

The generator produces a time-ordered stream of client actions describing
what desktop clients do (open/close sessions, upload, download, make,
unlink, ...).  The back-end simulator consumes this stream and turns it
into trace records enriched with server placement, RPC decomposition and
service times.

The canonical storage is :class:`EventBlock` — a struct-of-arrays container
with one column per event field, hung off each :class:`SessionScript`.  The
materializer appends scalars straight into the columns, and a replay shard
transposes every block of the shard into one list of dispatch rows (see
:meth:`repro.backend.replay_shard.ReplayShard._build_timeline`), so no
per-event object is built on the hot path.  :class:`ClientEvent` remains the
scalar view: ``script.events`` decodes read-only copies from the block, and
hand-built scripts pass ``block=EventBlock.from_events(...)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.trace.records import ApiOperation, NodeKind, VolumeType

__all__ = ["ClientEvent", "EventBlock", "SessionScript"]


class ClientEvent:
    """A single client action at a point in time.

    ``node_id``/``volume_id`` are client-chosen identifiers that remain
    stable across the life of a file or volume, which is what the per-file
    analyses (Fig. 3) need.  ``size_bytes``, ``content_hash``, ``extension``
    and ``is_update`` are only meaningful for transfer operations.
    """

    __slots__ = ("time", "user_id", "session_id", "operation", "node_id",
                 "volume_id", "volume_type", "node_kind", "size_bytes",
                 "content_hash", "extension", "is_update", "caused_by_attack")

    def __init__(self, time: float, user_id: int, session_id: int,
                 operation: ApiOperation, node_id: int = 0,
                 volume_id: int = 0,
                 volume_type: VolumeType = VolumeType.ROOT,
                 node_kind: NodeKind = NodeKind.FILE,
                 size_bytes: int = 0, content_hash: str = "",
                 extension: str = "", is_update: bool = False,
                 caused_by_attack: bool = False) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self.time = time
        self.user_id = user_id
        self.session_id = session_id
        self.operation = operation
        self.node_id = node_id
        self.volume_id = volume_id
        self.volume_type = volume_type
        self.node_kind = node_kind
        self.size_bytes = size_bytes
        self.content_hash = content_hash
        self.extension = extension
        self.is_update = is_update
        self.caused_by_attack = caused_by_attack

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"ClientEvent({fields})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClientEvent):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __hash__(self) -> int:
        return hash((self.time, self.user_id, self.session_id,
                     self.operation, self.node_id))

    @property
    def is_transfer(self) -> bool:
        """True for uploads and downloads."""
        return self.operation.is_transfer


#: Per-event columns of an :class:`EventBlock`, in hydration order.
EVENT_COLUMNS = ("times", "operations", "node_ids", "volume_ids",
                 "volume_types", "node_kinds", "size_bytes",
                 "content_hashes", "extensions", "is_updates")


class EventBlock:
    """Struct-of-arrays storage for one script's events.

    One column per :class:`ClientEvent` field (``user_id``/``session_id``
    live on the owning script, ``caused_by_attack`` is constant per script).
    A column is either a list of length ``n`` or a scalar meaning "this
    value for every event" — attack episodes, for example, vary only in
    time and upload flag, so nine of their ten columns are scalars and the
    block costs O(1) per event to build.  :meth:`columns` broadcasts the
    scalars into lists; the replay shard reads the columns as stored and
    repeats the scalars itself while it builds its dispatch rows.
    """

    __slots__ = EVENT_COLUMNS + ("caused_by_attack",)

    def __init__(self, times: list[float],
                 operations: "list[ApiOperation] | ApiOperation",
                 node_ids: "list[int] | int" = 0,
                 volume_ids: "list[int] | int" = 0,
                 volume_types: "list[VolumeType] | VolumeType" = VolumeType.ROOT,
                 node_kinds: "list[NodeKind] | NodeKind" = NodeKind.FILE,
                 size_bytes: "list[int] | int" = 0,
                 content_hashes: "list[str] | str" = "",
                 extensions: "list[str] | str" = "",
                 is_updates: "list[bool] | bool" = False,
                 caused_by_attack: bool = False) -> None:
        self.times = times
        self.operations = operations
        self.node_ids = node_ids
        self.volume_ids = volume_ids
        self.volume_types = volume_types
        self.node_kinds = node_kinds
        self.size_bytes = size_bytes
        self.content_hashes = content_hashes
        self.extensions = extensions
        self.is_updates = is_updates
        self.caused_by_attack = caused_by_attack

    def __len__(self) -> int:
        return len(self.times)

    def columns(self) -> tuple[list, ...]:
        """All ten columns as equal-length lists (scalars broadcast)."""
        n = len(self.times)
        out = []
        for name in EVENT_COLUMNS:
            value = getattr(self, name)
            out.append(value if type(value) is list else [value] * n)
        return tuple(out)

    @classmethod
    def from_events(cls, events: "list[ClientEvent]",
                    caused_by_attack: bool = False) -> "EventBlock":
        """Transpose a scalar event list into columnar storage."""
        if not events:
            return cls(times=[], operations=[],
                       caused_by_attack=caused_by_attack)
        return cls(times=[e.time for e in events],
                   operations=[e.operation for e in events],
                   node_ids=[e.node_id for e in events],
                   volume_ids=[e.volume_id for e in events],
                   volume_types=[e.volume_type for e in events],
                   node_kinds=[e.node_kind for e in events],
                   size_bytes=[e.size_bytes for e in events],
                   content_hashes=[e.content_hash for e in events],
                   extensions=[e.extension for e in events],
                   is_updates=[e.is_update for e in events],
                   caused_by_attack=caused_by_attack)

    def to_events(self, user_id: int, session_id: int) -> "list[ClientEvent]":
        """Hydrate per-event :class:`ClientEvent` objects from the columns."""
        attack = self.caused_by_attack
        return [ClientEvent(t, user_id, session_id, op, node_id, volume_id,
                            volume_type, node_kind, size, content_hash,
                            extension, is_update, attack)
                for (t, op, node_id, volume_id, volume_type, node_kind,
                     size, content_hash, extension, is_update)
                in zip(*self.columns())]


class SessionScript:
    """All the events of one client session, in chronological order.

    A session starts with an OPEN_SESSION event and ends with CLOSE_SESSION;
    in between come the (possibly zero) operations the client performed.
    The events live only in :attr:`block`, columnar; a script without events
    carries an empty block.  :attr:`events` is a read-only view: a tuple of
    :class:`ClientEvent` copies decoded from the block on every access.
    """

    __slots__ = ("user_id", "session_id", "start", "end", "caused_by_attack",
                 "auth_failed", "block")

    def __init__(self, user_id: int, session_id: int, start: float,
                 end: float, caused_by_attack: bool = False,
                 auth_failed: bool = False,
                 block: "EventBlock | None" = None) -> None:
        self.user_id = user_id
        self.session_id = session_id
        self.start = start
        self.end = end
        self.caused_by_attack = caused_by_attack
        self.auth_failed = auth_failed
        self.block = block if block is not None else EventBlock(
            times=[], operations=[])

    @property
    def events(self) -> "tuple[ClientEvent, ...]":
        """The events as :class:`ClientEvent` copies decoded from the block."""
        return tuple(self.block.to_events(self.user_id, self.session_id))

    @property
    def length(self) -> float:
        """Session length in seconds."""
        return self.end - self.start

    @property
    def n_events(self) -> int:
        """Event count, without decoding events from the block."""
        return len(self.block.times)

    @property
    def storage_operation_count(self) -> int:
        """Number of data-management operations performed by the session."""
        operations = self.block.operations
        if type(operations) is not list:
            operations = [operations] * len(self.block.times)
        return sum(1 for op in operations if op.is_data_management)

    @property
    def is_active(self) -> bool:
        """True when the session performed at least one data-management op."""
        return self.storage_operation_count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SessionScript(user_id={self.user_id}, "
                f"session_id={self.session_id}, start={self.start}, "
                f"end={self.end}, n_events={self.n_events}, "
                f"caused_by_attack={self.caused_by_attack})")

    def __iter__(self) -> Iterator[ClientEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return self.n_events
