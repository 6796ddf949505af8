"""API server processes (Section 3.2-3.4).

API servers are the heart of the U1 back-end: they hold the persistent TCP
connection of every desktop client, authenticate sessions against the
Canonical authentication service, translate client commands into RPC calls
against the metadata store and — unlike Dropbox — also shuttle the actual
file contents between the client and Amazon S3 (creating uploadjobs for
multipart transfers, Appendix A).  They finally push notifications to other
online clients affected by a change, via the RabbitMQ bus when those clients
are handled by a different API process.

:class:`ApiServerProcess` implements the part of that which draws random
numbers or changes back-end state, and so runs in a replay shard's dispatch
loop in timeline order: the session open (token, token cache, the
``validate`` draw and the two bootstrap RPCs, :meth:`~ApiServerProcess.
open_session`) and every client request but the download (:meth:`~
ApiServerProcess.handle_event`), whose RPCs take their latency factors in
call order.  A download draws nothing and, once its node and content are
known, changes nothing, so the shard's loop serves it itself and only
counts its factor (:meth:`repro.backend.replay_shard.ReplayShard.
_dispatch`).  The rest is computed after the loop in column passes: every
storage row and service time, the downloads' RPC rows, the session rows,
and the notification fan-out of every successful mutation — which the
process only records, as its timeline ordinal — by
:meth:`SessionRegistry.fan_out`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.backend.auth import AuthenticationService, TokenCache
from repro.backend.datastore import ObjectStore
from repro.backend.errors import AuthenticationError, UnknownNodeError
from repro.backend.gateway import ProcessAddress
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.notifications import NotificationBus
from repro.backend.protocol.entities import SessionHandle
from repro.backend.rpc_server import RpcContext, RpcWorker
from repro.backend.tracing import TraceSink
from repro.trace.records import (
    MUTATING_OPERATIONS as _MUTATING_OPERATIONS,
    ApiOperation,
    NodeKind,
    RpcName,
)

__all__ = ["SessionSpans", "SessionRegistry", "ApiServerProcess"]

# Session-open constants (module-level loads are faster than enum attribute
# lookups).
_GET_USER_DATA_RPC = RpcName.GET_USER_DATA
_GET_USER_ID_FROM_TOKEN_RPC = RpcName.GET_USER_ID_FROM_TOKEN
_GET_ROOT_RPC = RpcName.GET_ROOT


class SessionSpans(NamedTuple):
    """The sessions of a replay shard, one entry per script.

    ``opened`` and ``closed`` are timeline ranks (positions in replay
    order) of the session's open and close: a session is open at the ranks
    strictly between them.  A denied session closes at its open's rank, so
    it is open at none; a session whose close record came before its open
    closes past the last rank.
    """

    user: np.ndarray
    #: Index of the API process the session was opened on.
    process: np.ndarray
    opened: np.ndarray
    closed: np.ndarray


class SessionRegistry:
    """Which open sessions each mutation notifies (Section 3.4.2).

    During dispatch the API processes append the timeline ordinal of every
    successful mutation to :attr:`mutations`.  After dispatch,
    :meth:`fan_out` finds in one interval pass the mutating user's other
    sessions open at each of them, split into those on the mutating process
    (pushed directly) and those on other processes (published on the bus).
    """

    __slots__ = ("mutations",)

    def __init__(self) -> None:
        self.mutations: list[int] = []

    def fan_out(self, spans: SessionSpans, rank: np.ndarray,
                script_of: np.ndarray, n_processes: int,
                bus: NotificationBus) -> np.ndarray:
        """Count the notification fan-out of :attr:`mutations` on ``bus``
        and return the pushes each of the ``n_processes`` API processes
        delivered from the bus.

        ``rank`` maps a timeline ordinal to its rank and ``script_of`` an
        open's or event's ordinal to its script.  The sessions of a group
        (a user, or a user on one process) open at rank ``r`` are those
        opened before ``r`` minus those closed before it, both counted by
        binary search in the group's sorted ``group * stride + rank`` keys;
        the mutating session itself is one of the local ones.  Each
        process pushes to every session it holds the remote mutations of
        the session's user made while the session was open.
        """
        mutations = np.fromiter(self.mutations, dtype=np.int64,
                                count=len(self.mutations))
        at = rank[mutations]
        who = script_of[mutations]
        stride = len(rank) + 1  # past every rank, the never-closed included
        user = np.unique(spans.user, return_inverse=True)[1]
        local = user * n_processes + spans.process

        def open_at(group: np.ndarray) -> np.ndarray:
            keys = group[who] * stride + at
            group = group * stride
            return (np.searchsorted(np.sort(group + spans.opened), keys)
                    - np.searchsorted(np.sort(group + spans.closed), keys))

        def made_while_open(group: np.ndarray) -> np.ndarray:
            keys = np.sort(group[who] * stride + at)
            group = group * stride
            return (np.searchsorted(keys, group + spans.closed)
                    - np.searchsorted(keys, group + spans.opened))

        fellows, here = open_at(user), open_at(local)
        bus.count(here - 1, fellows - here, n_processes)
        received = made_while_open(user) - made_while_open(local)
        return np.bincount(spans.process, weights=received,
                           minlength=n_processes).astype(np.int64)


class ApiServerProcess:
    """One API server process (there are several per physical machine)."""

    def __init__(self, address: ProcessAddress,
                 metadata_store: ShardedMetadataStore, rpc_worker: RpcWorker,
                 object_store: ObjectStore, auth: AuthenticationService,
                 registry: SessionRegistry, sink: TraceSink,
                 rng: np.random.Generator,
                 dedup_enabled: bool = True, delta_updates_enabled: bool = False,
                 delta_update_factor: float = 0.05,
                 interrupted_upload_fraction: float = 0.0):
        self.address = address
        self._rpc = rpc_worker
        self._store = metadata_store
        self._objects = object_store
        self._auth = auth
        self._rng = rng
        self._dedup_enabled = dedup_enabled
        self._delta_updates_enabled = delta_updates_enabled
        self._delta_update_factor = delta_update_factor
        self._interrupted_upload_fraction = interrupted_upload_fraction
        # A successful mutation records its reference for the fan-out pass.
        self._sink = sink
        self._mutated = registry.mutations.append
        self._token_cache = TokenCache()
        # Reusable request context: every RPC row records the context's
        # request reference immediately, so one mutable context per process
        # avoids an allocation per request.
        self._request_context = RpcContext(0.0, 0)

    # ------------------------------------------------------- session handling
    def open_session(self, user_id: int, session_id: int, timestamp: float,
                     ref: int, force_auth_failure: bool = False
                     ) -> SessionHandle | None:
        """Authenticate a client and establish a storage-protocol session.

        Returns the session handle, or None when authentication failed.
        ``ref`` is the open's trace-sink reference (its timeline ordinal in
        a replay shard), which the authentication and bootstrap RPC rows
        record.  ``force_auth_failure`` (a planned failure, or an
        ``AuthOutage`` window) denies the open before validate()'s RNG
        draw.  The session rows (``AUTH_REQUEST``, then ``AUTH_FAIL`` or
        ``AUTH_OK`` and ``CONNECT``, and the close's ``DISCONNECT``) follow
        from the outcome and are built by the replay shard after dispatch.
        """
        token = self._auth.token_for(user_id, timestamp)
        shard, shard_id = self._store.shard_and_id(user_id)
        # Reuse the process-lifetime context (requests do the same): the
        # RPC layer records the reference at execute time, so a fresh
        # allocation per session open buys nothing.
        context = self._request_context
        context.timestamp = timestamp
        context.ref = ref
        context.shard_id = shard_id
        try:
            if self._token_cache.get(token.token) is None:
                self._rpc.execute(_GET_USER_ID_FROM_TOKEN_RPC, context,
                                  self._auth.validate, token.token, timestamp,
                                  force_auth_failure)
                self._token_cache.put(token.token, user_id)
            elif force_auth_failure:
                raise AuthenticationError("authentication denied")
        except AuthenticationError:
            return None

        # Register the user (and its root volume) on its shard, then fetch the
        # session bootstrap data the desktop client asks for.
        self._rpc.execute(_GET_USER_DATA_RPC, context,
                          shard.ensure_user, user_id, -user_id, timestamp)
        self._rpc.execute(_GET_ROOT_RPC, context, shard.get_root, user_id)
        return SessionHandle(session_id, user_id, shard, shard_id)

    # -------------------------------------------------------------- requests
    def handle_event(self, handle: SessionHandle, row: tuple, ref: int) -> None:
        """Serve one client request of the session ``handle``: run its
        operation's :data:`_HANDLERS` entry and, after a successful
        mutation, record its reference for the notification fan-out.

        ``row`` is a replay shard's dispatch row (see
        :meth:`repro.backend.replay_shard.ReplayShard._build_timeline`) and
        ``ref`` the request's trace-sink reference, which every RPC row
        records.  Storage rows, fault dispositions and downloads are the
        replay shard's (:meth:`~repro.backend.replay_shard.ReplayShard.
        _dispatch`).
        """
        operation = row[1]
        context = self._request_context
        context.timestamp = row[0]
        context.ref = ref
        context.shard_id = handle.shard_id
        if (self._HANDLERS[operation](self, handle.user_id, row, context,
                                      handle.shard)
                and operation in _MUTATING_OPERATIONS):
            self._mutated(ref)

    # ----------------------------------------------------------- op handlers
    # Each handler serves one operation: ``handler(self, user_id, row,
    # context, shard)`` with the request's dispatch row, the process's
    # request context (already pointing at the request) and the session's
    # metadata shard.  It returns whether the request succeeded.

    def _handle_make(self, user_id: int, row: tuple, context: RpcContext,
                     shard) -> bool:
        _, _, node_id, volume_id, _, node_kind, _, _, extension, _, _ = row
        rpc_name = (RpcName.MAKE_DIR if node_kind is NodeKind.DIRECTORY
                    else RpcName.MAKE_FILE)
        self._rpc.execute(rpc_name, context, shard.make_node, user_id,
                          volume_id, node_id, node_kind, extension,
                          context.timestamp)
        return True

    def _handle_upload(self, user_id: int, row: tuple, context: RpcContext,
                       shard) -> bool:
        _, _, node_id, _, _, _, size_bytes, content_hash, _, is_update, _ = row
        timestamp = context.timestamp
        rpc = self._rpc
        objects = self._objects
        size = size_bytes
        if self._delta_updates_enabled and is_update:
            size = max(1, int(size * self._delta_update_factor))
        # Files may predate the trace: make the node first (a traced RPC).
        if not shard.has_node(node_id):
            self._handle_make(user_id, row, context, shard)

        # With cross-user dedup disabled (ablation), contents are stored under
        # a per-node key so that identical files are physically duplicated.
        storage_key = content_hash or f"anon-{node_id}"
        if not self._dedup_enabled:
            storage_key = f"{storage_key}#{user_id}#{node_id}"

        rpc.execute(RpcName.GET_REUSABLE_CONTENT, context,
                    shard.get_reusable_content, content_hash)
        job = None
        if self._dedup_enabled and content_hash and content_hash in objects:
            objects.link(content_hash)
        elif size <= objects.chunk_bytes:
            objects.put(storage_key, size)
        else:
            # Multipart upload through the uploadjob state machine
            # (Appendix A).
            chunk = objects.chunk_bytes
            job = rpc.execute(RpcName.MAKE_UPLOADJOB, context,
                              shard.make_uploadjob, user_id, node_id,
                              row[3], content_hash, size, timestamp, chunk)
            multipart_id = objects.initiate_multipart(storage_key, size)
            rpc.execute(RpcName.SET_UPLOADJOB_MULTIPART_ID, context,
                        shard.set_uploadjob_multipart_id, job.job_id,
                        multipart_id, timestamp)
            # The part schedule is known up front (full chunks plus a tail,
            # at least two parts), so the per-part RPC bookkeeping runs
            # through the worker's block path.  An interrupted client goes
            # away after the first chunk; the uploadjob stays in the
            # metadata store until the garbage collector reaps it.
            interrupted = self._rng.random() < self._interrupted_upload_fraction
            n_full, tail = divmod(size, chunk)
            parts = [chunk] * n_full + ([tail] if tail else [])
            if interrupted:
                parts = parts[:1]
            for part in parts:
                objects.upload_part(multipart_id, part)
            rpc.execute_block(RpcName.ADD_PART_TO_UPLOADJOB, context,
                              shard.add_part_to_uploadjob,
                              [(job.job_id, part, timestamp) for part in parts])
            if interrupted:
                objects.abort_multipart(multipart_id)
                return False
            objects.complete_multipart(multipart_id, storage_key)
        rpc.execute(RpcName.MAKE_CONTENT, context, shard.make_content,
                    node_id, content_hash, size_bytes, timestamp)
        if job is not None:
            rpc.execute(RpcName.DELETE_UPLOADJOB, context,
                        shard.delete_uploadjob, job.job_id, timestamp, True)
        return True

    def _handle_unlink(self, user_id: int, row: tuple, context: RpcContext,
                       shard) -> bool:
        node = self._rpc.execute(RpcName.UNLINK_NODE, context,
                                 shard.unlink_node, row[2])
        if node is not None and node.content_hash:
            self._objects.unlink(node.content_hash)
        return True

    def _handle_move(self, user_id: int, row: tuple, context: RpcContext,
                     shard) -> bool:
        _, _, node_id, volume_id, _, node_kind, _, _, extension, _, _ = row
        if not shard.has_node(node_id):  # registered quietly, untraced
            shard.make_node(user_id, volume_id, node_id, node_kind, extension,
                            context.timestamp)
        try:
            self._rpc.execute(RpcName.MOVE, context, shard.move_node,
                              node_id, volume_id, context.timestamp)
        except UnknownNodeError:
            return False
        return True

    def _handle_create_udf(self, user_id: int, row: tuple,
                           context: RpcContext, shard) -> bool:
        self._rpc.execute(RpcName.CREATE_UDF, context, shard.create_volume,
                          user_id, row[3], row[4], context.timestamp)
        return True

    def _handle_delete_volume(self, user_id: int, row: tuple,
                              context: RpcContext, shard) -> bool:
        removed = self._rpc.execute(RpcName.DELETE_VOLUME, context,
                                    shard.delete_volume, user_id, row[3])
        for node in removed:
            if node.content_hash:
                self._objects.unlink(node.content_hash)
        return True

    def _handle_get_delta(self, user_id: int, row: tuple, context: RpcContext,
                          shard) -> bool:
        self._rpc.execute(RpcName.GET_DELTA, context, shard.get_delta, row[3])
        return True

    def _handle_list_volumes(self, user_id: int, row: tuple,
                             context: RpcContext, shard) -> bool:
        self._rpc.execute(RpcName.LIST_VOLUMES, context, shard.list_volumes,
                          user_id)
        return True

    def _handle_list_shares(self, user_id: int, row: tuple,
                            context: RpcContext, shard) -> bool:
        self._rpc.execute(RpcName.LIST_SHARES, context, shard.list_shares,
                          user_id)
        return True

    def _handle_query_set_caps(self, user_id: int, row: tuple,
                               context: RpcContext, shard) -> bool:
        self._rpc.execute(_GET_USER_DATA_RPC, context, shard.get_user_data,
                          user_id)
        return True

    def _handle_rescan(self, user_id: int, row: tuple, context: RpcContext,
                       shard) -> bool:
        self._rpc.execute(RpcName.GET_FROM_SCRATCH, context,
                          shard.get_from_scratch, user_id)
        return True

    #: Request dispatch table of every operation but the download, which
    #: the replay shard serves in its dispatch loop.  Plain functions at
    #: class level: a per-instance table of bound methods would put every
    #: process in a reference cycle with itself.
    _HANDLERS = {
        ApiOperation.UPLOAD: _handle_upload,
        ApiOperation.MAKE: _handle_make,
        ApiOperation.UNLINK: _handle_unlink,
        ApiOperation.MOVE: _handle_move,
        ApiOperation.CREATE_UDF: _handle_create_udf,
        ApiOperation.DELETE_VOLUME: _handle_delete_volume,
        ApiOperation.GET_DELTA: _handle_get_delta,
        ApiOperation.LIST_VOLUMES: _handle_list_volumes,
        ApiOperation.LIST_SHARES: _handle_list_shares,
        ApiOperation.QUERY_SET_CAPS: _handle_query_set_caps,
        ApiOperation.RESCAN_FROM_SCRATCH: _handle_rescan,
    }
