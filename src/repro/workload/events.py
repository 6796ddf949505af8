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
per-event object is built.  Hand-built scripts pass an :class:`EventBlock`
built from its columns.
"""

from __future__ import annotations

from repro.trace.records import ApiOperation, NodeKind, VolumeType

__all__ = ["EventBlock", "SessionScript"]


#: Per-event columns of an :class:`EventBlock`, in dispatch-row order.
EVENT_COLUMNS = ("times", "operations", "node_ids", "volume_ids",
                 "volume_types", "node_kinds", "size_bytes",
                 "content_hashes", "extensions", "is_updates")


class EventBlock:
    """Struct-of-arrays storage for one script's events.

    One column per event field (:data:`EVENT_COLUMNS`; ``user_id`` and
    ``session_id`` live on the owning script, ``caused_by_attack`` is
    constant per script).  A column is either a list of length ``n`` or a
    scalar meaning "this value for every event" — attack episodes, for
    example, vary only in time and upload flag, so nine of their ten
    columns are scalars and the block costs O(1) per event to build.  The
    replay shard reads the columns as stored and repeats the scalars
    itself while it builds its dispatch rows.
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


class SessionScript:
    """All the events of one client session, in chronological order.

    A session starts with an OPEN_SESSION event and ends with CLOSE_SESSION;
    in between come the (possibly zero) operations the client performed.
    The events live only in :attr:`block`, columnar; a script without events
    carries an empty block.
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
    def length(self) -> float:
        """Session length in seconds."""
        return self.end - self.start

    @property
    def n_events(self) -> int:
        """Event count, without decoding events from the block."""
        return len(self.block.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SessionScript(user_id={self.user_id}, "
                f"session_id={self.session_id}, start={self.start}, "
                f"end={self.end}, n_events={self.n_events}, "
                f"caused_by_attack={self.caused_by_attack})")

    def __len__(self) -> int:
        return self.n_events
