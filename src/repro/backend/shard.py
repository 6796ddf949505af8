"""A single metadata-store shard (one PostgreSQL master-slave pair).

The U1 metadata store is a PostgreSQL cluster of 20 machines configured as 10
master-slave shards; operations are routed by user identifier so that the
metadata of a user's files and folders always lives in the same shard, which
makes most operations lockless (only shared folders can span shards).

:class:`MetadataShard` implements the data-access-layer (DAL) surface the RPC
workers call: users, volumes, nodes, contents and uploadjobs.  Every DAL
call is an RPC row of the trace that carries its shard id; the
load-balancing analysis (Fig. 14) counts those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.errors import UnknownNodeError, UnknownUserError
from repro.backend.protocol.entities import Node, Volume
from repro.backend.uploadjob import UploadJob
from repro.trace.records import NodeKind, VolumeType

__all__ = ["MetadataShard", "UserRow"]


@dataclass
class UserRow:
    """Per-user row kept by a shard."""

    user_id: int
    root_volume_id: int
    created_at: float
    volume_ids: set[int] = field(default_factory=set)


class MetadataShard:
    """In-memory tables and DAL operations of one shard."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._users: dict[int, UserRow] = {}
        self._volumes: dict[int, Volume] = {}
        self._nodes: dict[int, Node] = {}
        self._uploadjobs: dict[int, UploadJob] = {}
        self._next_uploadjob_id = 1
        # content hash -> {node_id: live node} — lets get_reusable_content
        # answer in O(1) instead of scanning every node of the shard (the
        # scan is O(nodes) and runs once per upload).
        self._content_index: dict[str, dict[int, Node]] = {}

    # ------------------------------------------------------------------ users
    def ensure_user(self, user_id: int, root_volume_id: int, now: float) -> UserRow:
        """Create the user row and root volume on first contact (idempotent)."""
        row = self._users.get(user_id)
        if row is not None:
            return row
        row = UserRow(user_id=user_id, root_volume_id=root_volume_id, created_at=now)
        self._users[user_id] = row
        self._volumes[root_volume_id] = Volume(
            volume_id=root_volume_id, owner_id=user_id,
            volume_type=VolumeType.ROOT, created_at=now)
        row.volume_ids.add(root_volume_id)
        return row

    def get_user_data(self, user_id: int) -> UserRow:
        """``dal.get_user_data``."""
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownUserError(user_id) from None

    def get_root(self, user_id: int) -> Volume:
        """``dal.get_root``."""
        row = self.get_user_data(user_id)
        return self._volumes[row.root_volume_id]

    # ---------------------------------------------------------------- volumes
    def create_volume(self, user_id: int, volume_id: int,
                      volume_type: VolumeType, now: float) -> Volume:
        """``dal.create_udf`` (and implicit shared-volume registration)."""
        row = self._users.get(user_id)
        if row is None:
            raise UnknownUserError(user_id)
        volume = self._volumes.get(volume_id)
        if volume is None:
            volume = Volume(volume_id=volume_id, owner_id=user_id,
                            volume_type=volume_type, created_at=now)
            self._volumes[volume_id] = volume
        row.volume_ids.add(volume_id)
        return volume

    def list_volumes(self, user_id: int) -> list[Volume]:
        """``dal.list_volumes``."""
        row = self._users.get(user_id)
        if row is None:
            raise UnknownUserError(user_id)
        return [self._volumes[v] for v in sorted(row.volume_ids)
                if v in self._volumes and self._volumes[v].is_live]

    def list_shares(self, user_id: int) -> list[Volume]:
        """``dal.list_shares`` — only volumes of type shared."""
        row = self._users.get(user_id)
        if row is None:
            raise UnknownUserError(user_id)
        return [self._volumes[v] for v in sorted(row.volume_ids)
                if v in self._volumes
                and self._volumes[v].volume_type is VolumeType.SHARED
                and self._volumes[v].is_live]

    def delete_volume(self, user_id: int, volume_id: int) -> list[Node]:
        """``dal.delete_volume`` — cascade-deletes the contained nodes.

        Returns the nodes that were removed so the caller can release their
        contents from the data store.
        """
        volume = self._volumes.get(volume_id)
        if volume is None:
            return []
        removed: list[Node] = []
        for node_id in sorted(volume.node_ids):
            node = self._nodes.pop(node_id, None)
            if node is not None:
                node.is_live = False
                if node.content_hash:
                    self._deindex_content(node.content_hash, node_id)
                removed.append(node)
        volume.node_ids.clear()
        volume.is_live = False
        row = self._users.get(user_id)
        if row is not None:
            row.volume_ids.discard(volume_id)
        return removed

    # ------------------------------------------------------------------ nodes
    def make_node(self, user_id: int, volume_id: int, node_id: int,
                  kind: NodeKind, extension: str, now: float) -> Node:
        """``dal.make_file`` / ``dal.make_dir`` (idempotent upsert)."""
        node = self._nodes.get(node_id)
        if node is not None:
            return node
        volume = self._volumes.get(volume_id)
        if volume is None:
            # Volumes can predate the trace; register them lazily.
            volume = Volume(volume_id=volume_id, owner_id=user_id,
                            volume_type=VolumeType.UDF, created_at=now)
            self._volumes[volume_id] = volume
            row = self._users.get(user_id)
            if row is not None:
                row.volume_ids.add(volume_id)
        node = Node(node_id=node_id, volume_id=volume_id, owner_id=user_id,
                    kind=kind, extension=extension, created_at=now,
                    modified_at=now)
        self._nodes[node_id] = node
        volume.node_ids.add(node_id)
        volume.bump_generation()
        return node

    def get_node(self, node_id: int) -> Node:
        """``dal.get_node``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def has_node(self, node_id: int) -> bool:
        """Whether the shard currently stores ``node_id``."""
        return node_id in self._nodes

    def make_content(self, node_id: int, content_hash: str, size_bytes: int,
                     now: float) -> Node:
        """``dal.make_content`` — attach (new) content to a file node."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        old_hash = node.content_hash
        node.apply_content(content_hash, size_bytes, now)
        if content_hash != old_hash:
            if old_hash:
                self._deindex_content(old_hash, node_id)
            if content_hash:
                self._content_index.setdefault(content_hash, {})[node_id] = node
        volume = self._volumes.get(node.volume_id)
        if volume is not None:
            volume.bump_generation()
        return node

    def _deindex_content(self, content_hash: str, node_id: int) -> None:
        """Drop a node from the content index (delete / content change)."""
        entry = self._content_index.get(content_hash)
        if entry is not None:
            entry.pop(node_id, None)
            if not entry:
                del self._content_index[content_hash]

    def unlink_node(self, node_id: int) -> Node | None:
        """``dal.unlink_node`` — delete a node; returns it, or None if absent."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            return None
        node.is_live = False
        if node.content_hash:
            self._deindex_content(node.content_hash, node_id)
        volume = self._volumes.get(node.volume_id)
        if volume is not None:
            volume.node_ids.discard(node_id)
            volume.bump_generation()
        return node

    def move_node(self, node_id: int, target_volume_id: int, now: float) -> Node:
        """``dal.move``."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        source = self._volumes.get(node.volume_id)
        if source is not None:
            source.node_ids.discard(node_id)
            source.bump_generation()
        target = self._volumes.get(target_volume_id)
        if target is None:
            target = Volume(volume_id=target_volume_id, owner_id=node.owner_id,
                            volume_type=VolumeType.UDF, created_at=now)
            self._volumes[target_volume_id] = target
        target.node_ids.add(node_id)
        target.bump_generation()
        node.volume_id = target_volume_id
        node.modified_at = now
        return node

    def get_delta(self, volume_id: int) -> int:
        """``dal.get_delta`` — return the volume generation."""
        volume = self._volumes.get(volume_id)
        return volume.generation if volume is not None else 0

    def get_from_scratch(self, user_id: int) -> list[Node]:
        """``dal.get_from_scratch`` — full listing of every node of a user."""
        row = self._users.get(user_id)
        if row is None:
            return []
        nodes: list[Node] = []
        for volume_id in row.volume_ids:
            volume = self._volumes.get(volume_id)
            if volume is None:
                continue
            nodes.extend(self._nodes[n] for n in volume.node_ids if n in self._nodes)
        return nodes

    def get_reusable_content(self, content_hash: str) -> Node | None:
        """``dal.get_reusable_content`` — any live node with this content.

        Answered from the content-hash index in O(1); the index only holds
        live nodes (maintained by make_content / unlink_node /
        delete_volume), so no liveness scan is needed.
        """
        entry = self._content_index.get(content_hash)
        if not entry:
            return None
        return next(iter(entry.values()))

    # ------------------------------------------------------------ uploadjobs
    def make_uploadjob(self, user_id: int, node_id: int, volume_id: int,
                       content_hash: str, total_bytes: int, now: float,
                       chunk_bytes: int) -> UploadJob:
        """``dal.make_uploadjob``."""
        job = UploadJob(job_id=self._next_uploadjob_id, user_id=user_id,
                        node_id=node_id, volume_id=volume_id,
                        content_hash=content_hash, total_bytes=total_bytes,
                        created_at=now, chunk_bytes=chunk_bytes)
        self._uploadjobs[job.job_id] = job
        self._next_uploadjob_id += 1
        return job

    def get_uploadjob(self, job_id: int) -> UploadJob | None:
        """``dal.get_uploadjob``."""
        return self._uploadjobs.get(job_id)

    def set_uploadjob_multipart_id(self, job_id: int, multipart_id: str,
                                   now: float) -> UploadJob:
        """``dal.set_uploadjob_multipart_id``."""
        job = self._uploadjobs[job_id]
        job.assign_multipart_id(multipart_id, now)
        return job

    def add_part_to_uploadjob(self, job_id: int, part_bytes: int, now: float) -> int:
        """``dal.add_part_to_uploadjob``."""
        return self._uploadjobs[job_id].add_part(part_bytes, now)

    def touch_uploadjob(self, job_id: int, now: float) -> bool:
        """``dal.touch_uploadjob`` — garbage-collection probe."""
        job = self._uploadjobs.get(job_id)
        if job is None:
            return False
        return job.touch(now)

    def delete_uploadjob(self, job_id: int, now: float, commit: bool = True) -> None:
        """``dal.delete_uploadjob`` — commit or cancel and forget the job."""
        job = self._uploadjobs.pop(job_id, None)
        if job is None:
            return
        if not job.state.is_terminal:
            if commit and job.is_complete:
                job.commit(now)
            else:
                job.cancel(now)

    def pending_uploadjobs(self) -> list[UploadJob]:
        """Uploadjobs currently tracked by the shard."""
        return list(self._uploadjobs.values())
