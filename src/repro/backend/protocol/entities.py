"""Protocol entities: nodes, volumes and sessions (Section 3.1.1).

* A **node** is a file or a directory, identified by its node id.
* A **volume** is a container of nodes.  Every user owns a *root* volume
  (created at client installation, id 0 on the client side), may create
  *user-defined* volumes (UDFs) and may be granted access to *shared*
  volumes belonging to other users.
* A **session** is the storage-protocol session established over the
  client's persistent TCP connection after OAuth authentication; it
  identifies the user's requests for its whole lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.trace.records import NodeKind, VolumeType

if TYPE_CHECKING:
    from repro.backend.shard import MetadataShard

__all__ = [
    "NodeId",
    "VolumeId",
    "Node",
    "Volume",
    "SessionHandle",
]

NodeId = int
VolumeId = int


@dataclass(slots=True)
class Node:
    """A file or directory entry in the metadata store."""

    node_id: NodeId
    volume_id: VolumeId
    owner_id: int
    kind: NodeKind
    size_bytes: int = 0
    content_hash: str = ""
    extension: str = ""
    created_at: float = 0.0
    modified_at: float = 0.0
    generation: int = 0
    is_live: bool = True

    @property
    def is_file(self) -> bool:
        """True when the node is a file."""
        return self.kind is NodeKind.FILE

    def apply_content(self, content_hash: str, size_bytes: int, when: float) -> None:
        """Record a (new) content version on this node."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self.content_hash = content_hash
        self.size_bytes = size_bytes
        self.modified_at = when
        self.generation += 1


@dataclass(slots=True)
class Volume:
    """A container of nodes belonging to one user."""

    volume_id: VolumeId
    owner_id: int
    volume_type: VolumeType
    created_at: float = 0.0
    generation: int = 0
    node_ids: set[NodeId] = field(default_factory=set)
    is_live: bool = True

    @property
    def node_count(self) -> int:
        """Number of live nodes in the volume."""
        return len(self.node_ids)

    def bump_generation(self) -> int:
        """Advance the volume generation (used by GetDelta synchronisation)."""
        self.generation += 1
        return self.generation


@dataclass(slots=True)
class SessionHandle:
    """A storage-protocol session, as the API process it was opened on
    serves its requests."""

    session_id: int
    user_id: int
    #: The user's metadata shard and its id, routed once when the session
    #: opens (a user's metadata lives in one shard); every request of the
    #: session is served there.
    shard: MetadataShard
    shard_id: int
