"""API server processes (Section 3.2-3.4).

API servers are the heart of the U1 back-end: they hold the persistent TCP
connection of every desktop client, authenticate sessions against the
Canonical authentication service, translate client commands into RPC calls
against the metadata store and — unlike Dropbox — also shuttle the actual
file contents between the client and Amazon S3 (creating uploadjobs for
multipart transfers, Appendix A).  They finally push notifications to other
online clients affected by a change, via the RabbitMQ bus when those clients
are handled by a different API process.

:class:`ApiServerProcess` implements all of that against the simulated
substrates and emits the storage/session trace records; RPC records are
emitted by the :class:`~repro.backend.rpc_server.RpcWorker` it delegates to.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.backend.auth import AuthenticationService, TokenCache
from repro.backend.datastore import ObjectStore
from repro.backend.errors import AuthenticationError, UnknownNodeError
from repro.backend.gateway import ProcessAddress
from repro.backend.notifications import Notification, NotificationBus
from repro.backend.protocol.entities import SessionHandle
from repro.backend.protocol.operations import ApiRequest, ApiResponse
from repro.backend.rpc_server import RpcContext, RpcWorker
from repro.backend.tracing import TraceSink
from repro.trace.dataset import RPC_CODE
from repro.trace.records import (
    DATA_MANAGEMENT_OPERATIONS as _DATA_MANAGEMENT_OPERATIONS,
    ApiOperation,
    NodeKind,
    RpcName,
    SessionEvent,
)

__all__ = ["SessionRegistry", "ApiServerProcess"]

# Hot-path constants (module-level loads are faster than enum attribute
# lookups in the per-request fast path).
_DOWNLOAD_OPERATION = ApiOperation.DOWNLOAD
_GET_DELTA_OPERATION = ApiOperation.GET_DELTA
_QUERY_SET_CAPS_OPERATION = ApiOperation.QUERY_SET_CAPS
_LIST_VOLUMES_OPERATION = ApiOperation.LIST_VOLUMES
_LIST_SHARES_OPERATION = ApiOperation.LIST_SHARES
_GET_NODE_RPC = RpcName.GET_NODE
_GET_NODE_CODE = RPC_CODE[_GET_NODE_RPC]
_GET_DELTA_RPC = RpcName.GET_DELTA
_GET_USER_DATA_RPC = RpcName.GET_USER_DATA
_LIST_VOLUMES_RPC = RpcName.LIST_VOLUMES
_LIST_SHARES_RPC = RpcName.LIST_SHARES
_GET_FROM_SCRATCH_RPC = RpcName.GET_FROM_SCRATCH
_GET_USER_ID_FROM_TOKEN_RPC = RpcName.GET_USER_ID_FROM_TOKEN
_GET_ROOT_RPC = RpcName.GET_ROOT
_AUTHENTICATE_OPERATION = ApiOperation.AUTHENTICATE
_AUTH_REQUEST = SessionEvent.AUTH_REQUEST
_AUTH_OK = SessionEvent.AUTH_OK
_AUTH_FAIL = SessionEvent.AUTH_FAIL
_CONNECT = SessionEvent.CONNECT
_DISCONNECT = SessionEvent.DISCONNECT

#: Session-maintenance operations whose handler is a single traced RPC with
#: no metadata mutation, no S3 traffic and no notification fan-out.  The
#: block-dispatch path completes them inline — routing memo, context
#: mutation, the one RPC, the storage row's provenance — without building a
#: request or a response object.
_RPC_ONLY_OPERATIONS = frozenset({
    ApiOperation.GET_DELTA,
    ApiOperation.LIST_VOLUMES,
    ApiOperation.LIST_SHARES,
    ApiOperation.QUERY_SET_CAPS,
    ApiOperation.RESCAN_FROM_SCRATCH,
})


class _ReplayRequest:
    """Reusable request-shaped record for the block-dispatch slow path.

    :meth:`ApiServerProcess.handle_event` consumes bare column scalars; when
    an event needs the generic machinery (mutations, interrupted uploads,
    fault envelopes) the scalars are written into this one per-process
    instance and handed to :meth:`ApiServerProcess.handle`, which accepts
    anything request-shaped.  Every consumer copies the fields out before
    the next event, so a single mutable instance replaces a per-event
    ``ClientEvent`` allocation.
    """

    __slots__ = ("timestamp", "user_id", "session_id", "operation",
                 "node_id", "volume_id", "volume_type", "node_kind",
                 "size_bytes", "content_hash", "extension", "is_update",
                 "caused_by_attack")


class SessionRegistry:
    """Cluster-wide registry of open sessions, keyed by user id.

    API servers consult it to decide whether a mutation needs to be pushed to
    other online clients of the same user (Section 3.4.2).  Next to each
    user's ``session id -> API process`` map it counts the user's sessions
    per process, so :meth:`fellow_sessions` is O(1) in the session count.
    """

    __slots__ = ("_by_user", "_per_process")

    def __init__(self) -> None:
        self._by_user: dict[int, dict[int, ProcessAddress]] = {}
        self._per_process: dict[int, dict[ProcessAddress, int]] = {}

    def register(self, user_id: int, session_id: int, address: ProcessAddress) -> None:
        """Register an open session."""
        sessions = self._by_user.get(user_id)
        if sessions is None:
            self._by_user[user_id] = {session_id: address}
            self._per_process[user_id] = {address: 1}
            return
        counts = self._per_process[user_id]
        previous = sessions.get(session_id)
        if previous is not None:  # a re-registered session moves
            counts[previous] -= 1
        sessions[session_id] = address
        counts[address] = counts.get(address, 0) + 1

    def unregister(self, user_id: int, session_id: int) -> None:
        """Remove a closed session."""
        sessions = self._by_user.get(user_id)
        if sessions is None:
            return
        address = sessions.pop(session_id, None)
        if address is None:
            return
        if sessions:
            self._per_process[user_id][address] -= 1
        else:
            del self._by_user[user_id]
            del self._per_process[user_id]

    def sessions_of(self, user_id: int) -> dict[int, ProcessAddress]:
        """Open sessions of ``user_id`` (session id -> API process)."""
        return dict(self._by_user.get(user_id, {}))

    def fellow_sessions(self, user_id: int, session_id: int,
                        address: ProcessAddress) -> tuple[int, int]:
        """``(local, remote)`` counts of ``user_id``'s open sessions other
        than ``session_id``: local ones are held by the process at
        ``address``."""
        sessions = self._by_user.get(user_id)
        if sessions is None:
            return 0, 0
        own = sessions.get(session_id)
        others = len(sessions) - (own is not None)
        if not others:
            return 0, 0
        local = self._per_process[user_id].get(address, 0) - (own == address)
        return local, others - local


class ApiServerProcess:
    """One API server process (there are several per physical machine)."""

    _MUTATING_OPERATIONS = frozenset({
        ApiOperation.UPLOAD, ApiOperation.UNLINK, ApiOperation.MAKE,
        ApiOperation.MOVE, ApiOperation.CREATE_UDF, ApiOperation.DELETE_VOLUME,
    })

    def __init__(self, address: ProcessAddress, rpc_worker: RpcWorker,
                 object_store: ObjectStore, auth: AuthenticationService,
                 bus: NotificationBus, registry: SessionRegistry,
                 sink: TraceSink, rng: np.random.Generator,
                 dedup_enabled: bool = True, delta_updates_enabled: bool = False,
                 delta_update_factor: float = 0.05,
                 interrupted_upload_fraction: float = 0.0,
                 faults=None):
        self.address = address
        self._rpc = rpc_worker
        self._store = rpc_worker.store
        self._server = address.server
        self._process = address.process
        self._objects = object_store
        # Tiered stores need per-access timestamps for their idle clocks;
        # the inlined download fast path skips that bookkeeping, so it is
        # only taken on classic single-tier stores.
        self._tiered = object_store.tiering is not None
        self._auth = auth
        # The bus holds this process's bound deliver_notification, so a
        # strong reference back would close a process -> bus -> process
        # cycle that only the cyclic collector could free.  The owner of
        # the bus and its processes (the cluster, a replay shard) keeps the
        # bus alive; the proxy is dereferenced once per publish.
        self._bus = weakref.proxy(bus)
        self._registry = registry
        self._rng = rng
        self._dedup_enabled = dedup_enabled
        self._delta_updates_enabled = delta_updates_enabled
        self._delta_update_factor = delta_update_factor
        self._interrupted_upload_fraction = interrupted_upload_fraction
        self._stable_routing = getattr(rpc_worker.store, "stable_routing", False)
        # Fault injection (repro.faults): requests inside the compiled
        # schedule's envelope are checked against the fault windows; outside
        # it — and in particular with no faults configured at all — the only
        # added work on the request path is one float comparison.
        self._faults = faults
        if faults is not None and faults.schedule.active:
            self._fault_lo, self._fault_hi = faults.schedule.envelope
        else:
            self._fault_lo, self._fault_hi = float("inf"), float("-inf")
        # Storage rows are recorded as provenance (request reference, shard
        # id) through the sink's bound buffer appenders, never stale.
        self._sink = sink
        self._storage_ref = sink.storage_refs.append
        self._storage_shard = sink.storage_shards.append
        self._session_row = sink.session_row
        self._token_cache = TokenCache()
        self._sessions: dict[int, SessionHandle] = {}
        # user id -> number of open sessions on this process; lets
        # deliver_notification avoid scanning every open session.
        self._user_sessions: dict[int, int] = {}
        # Reusable request context: handle() runs once per replayed event and
        # every RPC row records the context's request reference immediately,
        # so one mutable context per process avoids an allocation per
        # request.
        self._request_context = RpcContext(0.0, address.server, address.process,
                                           0, 0)
        # Reusable request for the block-dispatch slow path (see
        # :class:`_ReplayRequest`).
        self._replay_request = _ReplayRequest()
        #: Counters useful for tests and the load-balancing analysis.
        self.requests_handled = 0
        self.notifications_pushed = 0
        # Formatted once: every remote fan-out excludes it from its publish.
        self._bus_name = str(address)
        bus.subscribe(self._bus_name, self.deliver_notification)

    # ------------------------------------------------------------ properties
    @property
    def store(self):
        """The sharded metadata store reached through the RPC worker."""
        return self._rpc.store

    @property
    def open_sessions(self) -> int:
        """Number of sessions currently connected to this process."""
        return len(self._sessions)

    # ------------------------------------------------------- session handling
    def open_session(self, user_id: int, session_id: int, timestamp: float,
                     force_auth_failure: bool = False,
                     caused_by_attack: bool = False,
                     ref: int | None = None) -> SessionHandle | None:
        """Authenticate a client and establish a storage-protocol session.

        Returns the session handle, or None when authentication failed (the
        failed attempt is still traced, since it still consumed work in the
        authentication subsystem).  ``ref`` is the open's timeline ordinal
        in a replay shard; a direct call registers the open with the sink.
        """
        server = self._server
        process = self._process
        session_row = self._session_row
        # Positional SessionRecord rows built inline: session management runs
        # once per session but four rows deep, so the helper frames add up.
        session_row((timestamp, server, process, user_id, session_id,
                     _AUTH_REQUEST, caused_by_attack, -1.0, 0))
        if ref is None:
            ref = self._sink.explicit_rpc(
                timestamp, server, process, user_id, session_id,
                _AUTHENTICATE_OPERATION, caused_by_attack)
        token = self._auth.token_for(user_id, timestamp)
        shard, shard_id = self._store.shard_and_id(user_id)
        # Reuse the process-lifetime context (handle() does the same): the
        # RPC layer records the reference at execute time, so a fresh
        # allocation per session open buys nothing.
        context = self._request_context
        context.timestamp = timestamp
        context.ref = ref
        context.shard_id = shard_id
        # An AuthOutage window denies every open in it — the old
        # ``force_auth_failure`` special case, folded into the fault
        # framework.  Denials short-circuit validate() before its RNG draw,
        # so the zero-fault draw sequence is untouched either way.
        faults = self._faults
        outage = (faults is not None
                  and self._fault_lo <= timestamp < self._fault_hi
                  and faults.schedule.auth_denied(timestamp))
        denied = force_auth_failure or outage
        try:
            cached = self._token_cache.get(token.token)
            if cached is None:
                if denied:
                    self._rpc.execute(
                        _GET_USER_ID_FROM_TOKEN_RPC, context,
                        lambda: self._auth.validate(token.token, timestamp,
                                                    force_failure=True))
                else:
                    # Common path: no closure — validate's positional
                    # signature matches execute()'s *args passing.
                    self._rpc.execute(_GET_USER_ID_FROM_TOKEN_RPC, context,
                                      self._auth.validate,
                                      token.token, timestamp)
                self._token_cache.put(token.token, user_id)
            elif denied:
                raise AuthenticationError(
                    "authentication outage" if outage
                    else "forced authentication failure")
        except AuthenticationError:
            if outage:
                # Counted for any failure inside the window (forced and
                # fraction-drawn ones included): the offline simulator
                # counts AUTH_FAIL rows in outage windows, which must match.
                faults.accounting.auth_outage_failures += 1
            session_row((timestamp, server, process, user_id, session_id,
                         _AUTH_FAIL, caused_by_attack, -1.0, 0))
            return None
        session_row((timestamp, server, process, user_id, session_id,
                     _AUTH_OK, caused_by_attack, -1.0, 0))

        # Register the user (and its root volume) on its shard, then fetch the
        # session bootstrap data the desktop client asks for.
        self._rpc.execute(_GET_USER_DATA_RPC, context,
                          shard.ensure_user, user_id, -user_id, timestamp)
        self._rpc.execute_one(_GET_ROOT_RPC, context, shard.get_root, user_id)

        handle = SessionHandle(session_id, user_id, timestamp, 0,
                               (shard, shard_id) if self._stable_routing
                               else None)
        self._sessions[session_id] = handle
        self._user_sessions[user_id] = self._user_sessions.get(user_id, 0) + 1
        self._registry.register(user_id, session_id, self.address)
        session_row((timestamp, server, process, user_id, session_id,
                     _CONNECT, caused_by_attack, -1.0, 0))
        return handle

    def close_session(self, session_id: int, timestamp: float,
                      caused_by_attack: bool = False) -> None:
        """Tear down a session and emit the DISCONNECT record."""
        handle = self._sessions.pop(session_id, None)
        if handle is None:
            return
        remaining = self._user_sessions.get(handle.user_id, 0) - 1
        if remaining > 0:
            self._user_sessions[handle.user_id] = remaining
        else:
            self._user_sessions.pop(handle.user_id, None)
        self._registry.unregister(handle.user_id, session_id)
        self._session_row((
            timestamp, self._server, self._process, handle.user_id,
            session_id, _DISCONNECT, caused_by_attack,
            max(0.0, timestamp - handle.established_at),
            handle.storage_operations))

    # --------------------------------------------------------- notifications
    def deliver_notification(self, notification: Notification) -> int:
        """Push a bus notification to the affected sessions on this process.

        Uses the per-user open-session index instead of scanning every open
        session: notifications usually target a single user, and the bus
        fans every publish out to every process.
        """
        user_sessions = self._user_sessions
        pushed = 0
        for user_id in notification.user_ids:
            pushed += user_sessions.get(user_id, 0)
        self.notifications_pushed += pushed
        return pushed

    def _notify_mutation(self, request: ApiRequest) -> int:
        """Notify other online clients of the user about a mutation."""
        local, remote = self._registry.fellow_sessions(
            request.user_id, request.session_id, self.address)
        pushed = local
        if local:
            self._bus.record_short_circuit(local)
        if remote:
            notification = Notification(
                request.timestamp, self._server, self._process,
                (request.user_id,), request.volume_id,
                request.operation.value)
            pushed += self._bus.publish(notification, exclude=self._bus_name)
        return pushed

    # -------------------------------------------------------------- requests
    def handle_event(self, handle: SessionHandle, row: tuple,
                     ref: int | None = None) -> None:
        """Process one replayed event straight from its event-block row.

        ``row`` is a replay shard's dispatch row (see
        :meth:`repro.backend.replay_shard.ReplayShard._build_timeline`) —
        ``(time, operation, node_id, volume_id, volume_type, node_kind,
        size_bytes, content_hash, extension, is_update, caused_by_attack)``;
        user and session identity come from the already-resolved
        ``handle``, and ``ref`` is the event's timeline ordinal (a call
        without one registers the event with the sink).  The storage row and
        every RPC row record only ``ref`` and the back-end's own values; the
        shard gathers the request fields from its event columns.  The replay
        loop never builds a ``ClientEvent`` or an ``ApiResponse`` on this
        path: downloads run the fused fast path, session maintenance
        (``_RPC_ONLY_OPERATIONS``) completes as one traced RPC plus the
        storage row, and only the rare remainder — mutations, interrupted
        uploads, tiered stores, events inside a fault envelope — is written
        into the reusable :class:`_ReplayRequest` and delegated to
        :meth:`handle`.  Every path emits rows bit-identical to
        :meth:`handle` for the same event.
        """
        (timestamp, operation, node_id, volume_id, volume_type, node_kind,
         size_bytes, content_hash, extension, is_update, attack) = row
        if ref is None:
            ref = self._sink.explicit((timestamp, self._server, self._process,
                                       handle.user_id, handle.session_id,
                                       *row[1:]))
        if not self._fault_lo <= timestamp < self._fault_hi:
            if (operation is _DOWNLOAD_OPERATION and self._stable_routing
                    and not self._tiered):
                routed = handle.shard_cache
                if routed is None:
                    routed = handle.shard_cache = self._store.shard_and_id(
                        handle.user_id)
                shard, shard_id = routed
                if node_id in shard._nodes:  # noqa: SLF001 - has_node, inlined
                    self.requests_handled += 1
                    handle.storage_operations += 1
                    objects = self._objects
                    if content_hash and content_hash not in objects:
                        objects.put(content_hash, size_bytes)
                    # Inlined RpcWorker.execute_one(GET_NODE): pooled factor
                    # draw, DAL touch, worker counters, RPC row provenance.
                    worker = self._rpc
                    model = worker._latency
                    factors = model._factors
                    i = model._factor_index
                    if i >= len(factors):
                        model._refill_factors()
                        factors = model._factors
                        i = 0
                    model._factor_index = i + 1
                    service_time = (model._base_by_rpc[_GET_NODE_RPC]
                                    [shard_id % model._n_shards] * factors[i])
                    shard.requests_served += 1  # get_node, result unused
                    worker.calls_executed += 1
                    worker.busy_time += service_time
                    worker._rpc_ref(ref)
                    worker._rpc_code(_GET_NODE_CODE)
                    worker._rpc_shard(shard_id)
                    worker._rpc_service(service_time)
                    if content_hash:
                        # Inlined ObjectStore.get() accounting.
                        accounting = objects.accounting
                        accounting.get_requests += 1
                        accounting.bytes_downloaded += \
                            objects._objects[content_hash]  # noqa: SLF001
                    self._storage_ref(ref)
                    self._storage_shard(shard_id)
                    return
            elif operation in _RPC_ONLY_OPERATIONS:
                self.requests_handled += 1
                user_id = handle.user_id
                if self._stable_routing:
                    routed = handle.shard_cache
                    if routed is None:
                        routed = handle.shard_cache = \
                            self._store.shard_and_id(user_id)
                    shard, shard_id = routed
                else:
                    shard, shard_id = self._store.shard_and_id(user_id)
                    shard.ensure_user(user_id, -user_id, timestamp)
                context = self._request_context
                context.timestamp = timestamp
                context.ref = ref
                context.shard_id = shard_id
                execute = self._rpc.execute
                if operation is _GET_DELTA_OPERATION:
                    execute(_GET_DELTA_RPC, context, shard.get_delta,
                            volume_id)
                elif operation is _QUERY_SET_CAPS_OPERATION:
                    execute(_GET_USER_DATA_RPC, context, shard.get_user_data,
                            user_id)
                elif operation is _LIST_VOLUMES_OPERATION:
                    execute(_LIST_VOLUMES_RPC, context, shard.list_volumes,
                            user_id)
                elif operation is _LIST_SHARES_OPERATION:
                    execute(_LIST_SHARES_RPC, context, shard.list_shares,
                            user_id)
                else:  # RESCAN_FROM_SCRATCH
                    execute(_GET_FROM_SCRATCH_RPC, context,
                            shard.get_from_scratch, user_id)
                self._storage_ref(ref)
                self._storage_shard(shard_id)
                return
        request = self._replay_request
        request.timestamp = timestamp
        request.user_id = handle.user_id
        request.session_id = handle.session_id
        request.operation = operation
        request.node_id = node_id
        request.volume_id = volume_id
        request.volume_type = volume_type
        request.node_kind = node_kind
        request.size_bytes = size_bytes
        request.content_hash = content_hash
        request.extension = extension
        request.is_update = is_update
        request.caused_by_attack = attack
        self.handle(request, ref)

    def handle(self, request: ApiRequest,
               ref: int | None = None) -> ApiResponse:
        """Process one client request end to end.

        Accepts anything request-shaped (a real :class:`ApiRequest` or the
        replay's :class:`_ReplayRequest`, which expose the same
        attributes).  ``ref`` is the request's timeline ordinal in a replay
        shard; a direct call registers the request with the sink.  This is
        the generic path for every operation; the replay's fast paths live
        in :meth:`handle_event`.
        """
        if ref is None:
            ref = self._sink.explicit_request(request, self._server,
                                              self._process)
        self.requests_handled += 1
        operation = request.operation
        handle = self._sessions.get(request.session_id)
        if handle is not None and operation in _DATA_MANAGEMENT_OPERATIONS:
            handle.storage_operations += 1

        timestamp = request.timestamp
        if handle is not None and self._stable_routing:
            # A session's shard never changes under user-id routing, and the
            # session open already registered the user there — routing is a
            # handle memo and the per-request re-registration is skipped.
            routed = handle.shard_cache
            if routed is None:
                routed = handle.shard_cache = self._store.shard_and_id(
                    request.user_id)
            shard, shard_id = routed
        else:
            shard, shard_id = self._store.shard_and_id(request.user_id)
            # Every request (re-)registers its user on the routed shard:
            # under round-robin routing each request may land on a different
            # shard than the session open did, and sessionless requests may
            # hit a shard that has never seen the user.
            shard.ensure_user(request.user_id, -request.user_id, timestamp)

        # Fault disposition (post-routing — the read-only check needs the
        # shard id).  A fault-hit request fails *before* its handler runs:
        # no metadata/store side effects, no RPC rows — which is what lets
        # the offline mitigation simulator recompute every decision exactly
        # from the baseline trace.
        fault_retries = 0
        faults = self._faults
        if faults is not None and self._fault_lo <= timestamp < self._fault_hi:
            error_kind, fault_retries, failover = faults.check_request(
                timestamp, request.user_id, request.session_id,
                operation in self._MUTATING_OPERATIONS,
                request.content_hash if operation.is_transfer else "",
                shard_id)
            if error_kind:
                if error_kind == "shard_read_only":
                    shard.write_rejections += 1
                self._storage_ref(ref)
                self._storage_shard(shard_id)
                self._sink.storage_fault(error_kind, fault_retries)
                return ApiResponse(operation, False,
                                   f"fault injected: {error_kind}")
            if failover:
                # A surviving replica serves the transfer; the handler runs
                # normally, the accounting records the failover.
                accounting = self._objects.accounting
                accounting.failover_reads += 1
                accounting.failover_bytes += request.size_bytes

        context = self._request_context
        context.timestamp = timestamp
        context.ref = ref
        context.shard_id = shard_id
        response = ApiResponse(operation=operation)
        rpc_before = self._rpc.calls_executed

        handler = self._HANDLERS.get(operation)
        if handler is None:
            response.ok = False
            response.error = f"unsupported operation {operation.value}"
        else:
            handler(self, request, context, shard, response)

        response.rpc_count = self._rpc.calls_executed - rpc_before
        if operation in self._MUTATING_OPERATIONS and response.ok:
            response.notified_sessions = self._notify_mutation(request)

        self._storage_ref(ref)
        self._storage_shard(shard_id)
        if fault_retries:
            self._sink.storage_fault("", fault_retries)
        return response

    # ----------------------------------------------------------- op handlers
    def _ensure_node(self, request: ApiRequest, context: RpcContext, shard,
                     traced: bool = True) -> None:
        """Make sure the node exists in the shard (files may predate the trace)."""
        if shard.has_node(request.node_id):
            return
        rpc_name = (RpcName.MAKE_DIR if request.node_kind is NodeKind.DIRECTORY
                    else RpcName.MAKE_FILE)
        if traced:
            self._rpc.execute(rpc_name, context, shard.make_node,
                              request.user_id, request.volume_id,
                              request.node_id, request.node_kind,
                              request.extension, context.timestamp)
        else:
            shard.make_node(request.user_id, request.volume_id, request.node_id,
                            request.node_kind, request.extension,
                            context.timestamp)

    def _handle_upload(self, request: ApiRequest, context: RpcContext,
                       shard, response: ApiResponse) -> None:
        size = request.size_bytes
        if self._delta_updates_enabled and request.is_update:
            size = max(1, int(size * self._delta_update_factor))
        self._ensure_node(request, context, shard)

        # With cross-user dedup disabled (ablation), contents are stored under
        # a per-node key so that identical files are physically duplicated.
        storage_key = request.content_hash or f"anon-{request.node_id}"
        if not self._dedup_enabled:
            storage_key = f"{storage_key}#{request.user_id}#{request.node_id}"

        self._rpc.execute_one(RpcName.GET_REUSABLE_CONTENT, context,
                              shard.get_reusable_content, request.content_hash)
        dedup_hit = (self._dedup_enabled and request.content_hash
                     and request.content_hash in self._objects)
        if dedup_hit:
            self._objects.link(request.content_hash, now=context.timestamp)
            self._rpc.execute(RpcName.MAKE_CONTENT, context,
                              shard.make_content, request.node_id,
                              request.content_hash, request.size_bytes,
                              context.timestamp)
            response.deduplicated = True
            return

        if size <= self._objects.chunk_bytes:
            transferred = self._objects.put(storage_key, size,
                                            now=context.timestamp)
            self._rpc.execute(RpcName.MAKE_CONTENT, context,
                              shard.make_content, request.node_id,
                              request.content_hash, request.size_bytes,
                              context.timestamp)
            response.bytes_to_s3 = size if transferred else 0
            response.deduplicated = not transferred
            return

        # Multipart upload through the uploadjob state machine (Appendix A).
        job = self._rpc.execute(
            RpcName.MAKE_UPLOADJOB, context, shard.make_uploadjob,
            request.user_id, request.node_id, request.volume_id,
            request.content_hash, size, context.timestamp,
            self._objects.chunk_bytes)
        multipart_id = self._objects.initiate_multipart(storage_key, size)
        self._rpc.execute(RpcName.SET_UPLOADJOB_MULTIPART_ID, context,
                          shard.set_uploadjob_multipart_id,
                          job.job_id, multipart_id, context.timestamp)
        interrupted = bool(self._rng.random() < self._interrupted_upload_fraction)
        # The part schedule is known up front (full chunks plus a tail), so
        # the per-part RPC bookkeeping runs through the worker's block path:
        # one pooled service-time draw and one counter update for the whole
        # transfer instead of per-chunk dispatch.  An interrupted client goes
        # away after the first chunk; the uploadjob stays in the metadata
        # store until the garbage collector reaps it.
        chunk = self._objects.chunk_bytes
        n_full, tail = divmod(size, chunk)
        parts = [chunk] * n_full + ([tail] if tail else [])
        if interrupted and len(parts) > 1:
            parts = parts[:1]
        uploaded = 0
        for part in parts:
            self._objects.upload_part(multipart_id, part)
            uploaded += part
        self._rpc.execute_block(
            RpcName.ADD_PART_TO_UPLOADJOB, context, shard.add_part_to_uploadjob,
            [(job.job_id, part, context.timestamp) for part in parts])
        if interrupted and uploaded < size:
            self._objects.abort_multipart(multipart_id)
            response.bytes_to_s3 = uploaded
            response.ok = False
            response.error = "upload interrupted by client"
            return
        self._objects.complete_multipart(multipart_id, storage_key,
                                         now=context.timestamp)
        self._rpc.execute(RpcName.MAKE_CONTENT, context,
                          shard.make_content, request.node_id,
                          request.content_hash, request.size_bytes,
                          context.timestamp)
        self._rpc.execute(RpcName.DELETE_UPLOADJOB, context,
                          lambda: shard.delete_uploadjob(job.job_id,
                                                         context.timestamp,
                                                         commit=True))
        response.bytes_to_s3 = size

    def _handle_download(self, request: ApiRequest, context: RpcContext,
                         shard, response: ApiResponse) -> None:
        # Files downloaded without an in-trace upload existed before the
        # measurement window; register them quietly so the store is coherent.
        if not shard.has_node(request.node_id):
            shard.make_node(request.user_id, request.volume_id, request.node_id,
                            request.node_kind, request.extension, context.timestamp)
            if request.content_hash:
                shard.make_content(request.node_id, request.content_hash,
                                   request.size_bytes, context.timestamp)
        if request.content_hash and request.content_hash not in self._objects:
            self._objects.put(request.content_hash, request.size_bytes,
                              now=context.timestamp)
        self._rpc.execute_one(RpcName.GET_NODE, context,
                              shard.get_node, request.node_id)
        if request.content_hash:
            response.bytes_from_s3 = self._objects.get(request.content_hash,
                                                       now=context.timestamp)
        else:
            response.bytes_from_s3 = request.size_bytes

    def _handle_make(self, request: ApiRequest, context: RpcContext,
                     shard, response: ApiResponse) -> None:
        rpc_name = (RpcName.MAKE_DIR if request.node_kind is NodeKind.DIRECTORY
                    else RpcName.MAKE_FILE)
        self._rpc.execute(rpc_name, context, shard.make_node,
                          request.user_id, request.volume_id, request.node_id,
                          request.node_kind, request.extension,
                          context.timestamp)

    def _handle_unlink(self, request: ApiRequest, context: RpcContext,
                       shard, response: ApiResponse) -> None:
        node = self._rpc.execute(RpcName.UNLINK_NODE, context,
                                 shard.unlink_node, request.node_id)
        if node is not None and node.content_hash and node.content_hash in self._objects:
            self._objects.unlink(node.content_hash, now=context.timestamp)

    def _handle_move(self, request: ApiRequest, context: RpcContext,
                     shard, response: ApiResponse) -> None:
        self._ensure_node(request, context, shard, traced=False)
        try:
            self._rpc.execute(RpcName.MOVE, context, shard.move_node,
                              request.node_id, request.volume_id,
                              context.timestamp)
        except UnknownNodeError:
            response.ok = False
            response.error = f"node {request.node_id} does not exist"

    def _handle_create_udf(self, request: ApiRequest, context: RpcContext,
                           shard, response: ApiResponse) -> None:
        self._rpc.execute(RpcName.CREATE_UDF, context, shard.create_volume,
                          request.user_id, request.volume_id,
                          request.volume_type, context.timestamp)

    def _handle_delete_volume(self, request: ApiRequest, context: RpcContext,
                              shard, response: ApiResponse) -> None:
        removed = self._rpc.execute(RpcName.DELETE_VOLUME, context,
                                    shard.delete_volume, request.user_id,
                                    request.volume_id)
        for node in removed:
            if node.content_hash and node.content_hash in self._objects:
                self._objects.unlink(node.content_hash, now=context.timestamp)
        response.details["nodes_removed"] = len(removed)

    def _handle_get_delta(self, request: ApiRequest, context: RpcContext,
                          shard, response: ApiResponse) -> None:
        self._rpc.execute(RpcName.GET_DELTA, context,
                          shard.get_delta, request.volume_id)

    def _handle_list_volumes(self, request: ApiRequest, context: RpcContext,
                             shard, response: ApiResponse) -> None:
        volumes = self._rpc.execute(RpcName.LIST_VOLUMES, context,
                                    shard.list_volumes, request.user_id)
        response.details["volumes"] = len(volumes)

    def _handle_list_shares(self, request: ApiRequest, context: RpcContext,
                            shard, response: ApiResponse) -> None:
        shares = self._rpc.execute(RpcName.LIST_SHARES, context,
                                   shard.list_shares, request.user_id)
        response.details["shares"] = len(shares)

    def _handle_query_set_caps(self, request: ApiRequest, context: RpcContext,
                               shard, response: ApiResponse) -> None:
        self._rpc.execute(RpcName.GET_USER_DATA, context,
                          shard.get_user_data, request.user_id)

    def _handle_rescan(self, request: ApiRequest, context: RpcContext,
                       shard, response: ApiResponse) -> None:
        nodes = self._rpc.execute(RpcName.GET_FROM_SCRATCH, context,
                                  shard.get_from_scratch, request.user_id)
        response.details["nodes"] = len(nodes)

    #: Request dispatch table, called as ``handler(self, request, context,
    #: shard, response)``.  Plain functions at class level: a per-instance
    #: table of bound methods would put every process in a reference cycle
    #: with itself.
    _HANDLERS = {
        ApiOperation.UPLOAD: _handle_upload,
        ApiOperation.DOWNLOAD: _handle_download,
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
