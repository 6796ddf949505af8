"""Offline what-if simulator: storage policies replayed over trace columns.

``examples/storage_cost_optimization.py`` historically answered every
what-if question ("what would the bill be without dedup? with delta
updates? with a cold tier?") by re-replaying the *entire* back-end once per
configuration.  This module answers them from the already-replayed trace
instead: a :class:`StorageTrace` decodes the storage stream's NumPy columns
once (operation codes, factorised content-hash codes, node/volume ids,
sizes), and :func:`simulate_policy` reproduces exactly the store
interactions of the API-server request handlers (dedup keying, the
small-file/multipart split, delta sizing, metadata-driven unlinks and
volume cascades).  No RPC decomposition, no service-time sampling, no
session machinery, no trace sink.

Since PR 5 the policies that keep baseline store semantics additionally
share one *resolution pass* per trace (:meth:`StorageTrace.shared_pass`):
the metadata bookkeeping runs once, recording the flat store-call stream
and every object's access-gap log.  The age-only (no-capacity) tiering
family is then computed fully vectorised from those per-content gap arrays
(:func:`_simulate_age_policy` — typically orders of magnitude below an
interpreted pass), capacity-eviction policies replay the recorded call
stream through a real tiered store (their eviction heaps are inherently
sequential), and only semantics-changing specs (no-dedup, delta updates)
still pay the full interpreted metadata pass.  A default five-policy sweep
therefore costs one replay plus roughly two interpreted passes.

Because the pass uses the real ``ObjectStore`` (including its tiering
engine), the produced :class:`~repro.backend.datastore.StorageAccounting`
is *identical* to what a live replay with the same policy produces — the
equivalence tests pin this — under three conditions the caller controls:

* ``replay_shards=1`` on the live side (the offline store is global; with
  more shards, dedup and tier state become per-shard — the documented
  model caveat);
* ``interrupted_upload_fraction=0.0`` (interrupted multiparts leave a trace
  record but no store commit, and the trace does not say which);
* ``end_time`` matching the live replay's tier-finalize instant
  (``U1Cluster.last_replay_stats["timeline_end"]``).

On traces replayed with the default knobs the offline figures drift by the
corresponding few percent; they remain what-if *estimates* either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.backend.datastore import ObjectStore, StorageAccounting
from repro.backend.uploadjob import UPLOAD_CHUNK_BYTES
from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.whatif.costs import StorageCostModel
from repro.whatif.tiering import TieringPolicy

__all__ = ["PolicyOutcome", "PolicySpec", "StorageTrace", "simulate_policy"]


_UPLOAD = OPERATION_CODE[ApiOperation.UPLOAD]
_DOWNLOAD = OPERATION_CODE[ApiOperation.DOWNLOAD]
_UNLINK = OPERATION_CODE[ApiOperation.UNLINK]
_MAKE = OPERATION_CODE[ApiOperation.MAKE]
_MOVE = OPERATION_CODE[ApiOperation.MOVE]
_DELETE_VOLUME = OPERATION_CODE[ApiOperation.DELETE_VOLUME]

#: Operations with object-store or node/volume-tracking side effects; every
#: other storage record (GetDelta, ListVolumes, ...) is dropped at decode
#: time.
_RELEVANT = np.array([_UPLOAD, _DOWNLOAD, _UNLINK, _MAKE, _MOVE,
                      _DELETE_VOLUME], dtype=np.int16)


@dataclass(frozen=True)
class PolicySpec:
    """One storage configuration of the what-if sweep."""

    name: str
    #: File-level cross-user deduplication (the real U1 behaviour).
    dedup: bool = True
    #: Delta-update size factor, or None for full re-uploads (the real U1
    #: client does not implement delta updates).
    delta_update_factor: float | None = None
    #: Hot/cold tiering policy, or None for the classic single tier.
    tiering: TieringPolicy | None = None
    description: str = ""


class StorageTrace:
    """The storage stream decoded once into plain Python lists.

    The decode (one vectorised mask + one ``.tolist()`` per needed field,
    content hashes as factorised integer codes) is shared by every policy
    pass of a sweep — the "one replay + N cheap columnar passes" shape.
    """

    __slots__ = ("ts", "ops", "nodes", "volumes", "users", "sizes",
                 "updates", "hashes", "empty_hash", "end_time", "n_records",
                 "_shared_passes")

    def __init__(self, ts, ops, nodes, volumes, users, sizes, updates,
                 hashes, empty_hash: int, end_time: float, n_records: int):
        self.ts = ts
        self.ops = ops
        self.nodes = nodes
        self.volumes = volumes
        self.users = users
        self.sizes = sizes
        self.updates = updates
        self.hashes = hashes
        self.empty_hash = empty_hash
        self.end_time = end_time
        self.n_records = n_records
        #: Memoised baseline-semantics resolutions keyed by
        #: ``(chunk_bytes, end_time)`` — see :meth:`shared_pass`.
        self._shared_passes: dict[tuple, _SharedPass] = {}

    def shared_pass(self, chunk_bytes: int, end_time: float) -> "_SharedPass":
        """The baseline-semantics resolution of this trace, built once.

        Every policy with baseline store semantics (``dedup`` on, full
        re-uploads) drives the object store through the *same* call
        sequence — tiering changes how objects migrate, never which calls
        happen.  The shared pass therefore runs the metadata bookkeeping
        once and records (a) the flat store-call stream the capacity
        policies replay, and (b) the per-content access-gap log the
        age-only policies consume vectorised, alongside the baseline
        accounting itself.
        """
        key = (chunk_bytes, end_time)
        shared = self._shared_passes.get(key)
        if shared is None:
            shared = self._shared_passes[key] = _build_shared_pass(
                self, chunk_bytes, end_time)
        return shared

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_dataset(cls, dataset: TraceDataset) -> "StorageTrace":
        """Decode the store-relevant slice of a dataset's storage stream."""
        ops = dataset.storage_column("operation")
        index = np.flatnonzero(np.isin(ops, _RELEVANT))
        hash_codes, categories = dataset.storage_codes("content_hash")
        try:
            empty_hash = categories.index("")
        except ValueError:
            empty_hash = -1
        try:
            end_time = dataset.time_span()[1]
        except ValueError:  # empty dataset
            end_time = 0.0
        column = dataset.storage_column
        return cls(
            ts=column("timestamp")[index].tolist(),
            ops=ops[index].tolist(),
            nodes=column("node_id")[index].tolist(),
            volumes=column("volume_id")[index].tolist(),
            users=column("user_id")[index].tolist(),
            sizes=column("size_bytes")[index].tolist(),
            updates=column("is_update")[index].tolist(),
            hashes=hash_codes[index].tolist(),
            empty_hash=empty_hash,
            end_time=end_time,
            n_records=int(len(ops)))


@dataclass
class PolicyOutcome:
    """Result of one offline policy pass."""

    spec: PolicySpec
    accounting: StorageAccounting
    object_count: int
    seconds: float
    costs: dict[str, float]
    monthly_cost: float

    def to_json(self) -> dict:
        """JSON payload of one outcome (``repro whatif --json``)."""
        accounting = self.accounting
        return {
            "name": self.spec.name,
            "description": self.spec.description,
            "seconds": self.seconds,
            "bytes_stored": accounting.bytes_stored,
            "bytes_uploaded": accounting.bytes_uploaded,
            "bytes_downloaded": accounting.bytes_downloaded,
            "dedup_hits": accounting.dedup_hits,
            "hot_bytes": accounting.hot_bytes,
            "cold_bytes": accounting.cold_bytes,
            "hot_hit_rate": accounting.hot_hit_rate,
            "cold_retrieved_bytes": accounting.cold_retrieved_bytes,
            "migrations": accounting.migrations,
            "object_count": self.object_count,
            "costs": dict(self.costs),
            "monthly_cost": self.monthly_cost,
        }


def simulate_policy(trace: StorageTrace, spec: PolicySpec,
                    cost_model: StorageCostModel | None = None,
                    chunk_bytes: int = UPLOAD_CHUNK_BYTES,
                    end_time: float | None = None) -> PolicyOutcome:
    """Replay one storage policy over a decoded trace.

    Dispatches by what the policy changes:

    * baseline store semantics (dedup on, full re-uploads) reuse the
      trace's memoised :meth:`StorageTrace.shared_pass`; a *no-tiering*
      spec is then just a copy of the shared accounting, an **age-only**
      tiering spec runs the fully vectorised gap kernel
      (:func:`_simulate_age_policy`), and a capacity-eviction spec replays
      the recorded flat store-call stream through a real tiered
      :class:`~repro.backend.datastore.ObjectStore`
      (:func:`_replay_op_stream`) — the heap-driven eviction machinery is
      inherently sequential, so it stays interpreted;
    * anything that changes the call sequence itself (``dedup=False`` or a
      delta-update factor) takes the full interpreted metadata pass
      (:func:`_interpreted_pass`).

    Every path produces accounting identical to a live replay with the
    same policy — the equivalence tests pin each family counter for
    counter.
    """
    started = time.perf_counter()
    cost_model = cost_model or StorageCostModel()
    end = trace.end_time if end_time is None else end_time
    if spec.dedup and spec.delta_update_factor is None:
        shared = trace.shared_pass(chunk_bytes, end)
        tiering = spec.tiering
        if tiering is None:
            accounting = replace(shared.accounting)
            object_count = shared.object_count
        elif tiering.hot_capacity_bytes is None:
            accounting = _simulate_age_policy(shared, tiering)
            object_count = shared.object_count
        else:
            store = _replay_op_stream(shared, spec, chunk_bytes, end)
            accounting = store.accounting
            object_count = len(store)
    else:
        store = _interpreted_pass(trace, spec, chunk_bytes, end)
        accounting = store.accounting
        object_count = len(store)
    return PolicyOutcome(
        spec=spec,
        accounting=accounting,
        object_count=object_count,
        seconds=time.perf_counter() - started,
        costs=cost_model.cost_breakdown(accounting),
        monthly_cost=cost_model.monthly_total(accounting))


#: Flat store-call stream opcodes recorded by the shared pass.
_CALL_PUT, _CALL_MPUT, _CALL_GET, _CALL_LINK, _CALL_UNLINK = range(5)


class _SharedPass:
    """Everything the baseline-semantics policy family shares.

    ``accounting``/``object_count`` are the baseline outcome itself.  The
    flat call stream (``call_kinds``/``call_keys``/``call_sizes``/
    ``call_ts``) replays through any tiered store without re-running the
    node/volume metadata bookkeeping.  The touch log and segment arrays
    describe every stored object's *life segment* (admission to physical
    removal or end of trace): per touch the idle gap since the previous
    touch and whether it was a download, per segment the object size, the
    closing idle gap and whether the segment ended in a physical delete —
    exactly the quantities the lazily-realised age-tiering semantics are a
    pure function of.
    """

    __slots__ = ("accounting", "object_count",
                 "call_kinds", "call_keys", "call_sizes", "call_ts",
                 "touch_seg", "touch_gap", "touch_dl",
                 "seg_size", "seg_final_gap", "seg_removed")

    def __init__(self, accounting, object_count, call_kinds, call_keys,
                 call_sizes, call_ts, touch_seg, touch_gap, touch_dl,
                 seg_size, seg_final_gap, seg_removed):
        self.accounting = accounting
        self.object_count = object_count
        self.call_kinds = call_kinds
        self.call_keys = call_keys
        self.call_sizes = call_sizes
        self.call_ts = call_ts
        self.touch_seg = touch_seg
        self.touch_gap = touch_gap
        self.touch_dl = touch_dl
        self.seg_size = seg_size
        self.seg_final_gap = seg_final_gap
        self.seg_removed = seg_removed


def _build_shared_pass(trace: StorageTrace, chunk_bytes: int,
                       end_time: float) -> _SharedPass:
    """Run the baseline metadata pass once, recording calls and touches."""
    recorder = _PassRecorder()
    store = _interpreted_pass(trace, PolicySpec("baseline"), chunk_bytes,
                              end_time, recorder=recorder)
    n_segments = len(recorder.seg_size)
    seg_final_gap = np.empty(n_segments)
    seg_removed = np.zeros(n_segments, dtype=bool)
    for seg, gap in recorder.closed_segments.items():
        seg_final_gap[seg] = gap
        seg_removed[seg] = True
    for key, seg in recorder.seg_of.items():
        seg_final_gap[seg] = end_time - recorder.last_access[key]
    return _SharedPass(
        accounting=store.accounting,
        object_count=len(store),
        call_kinds=recorder.call_kinds,
        call_keys=recorder.call_keys,
        call_sizes=recorder.call_sizes,
        call_ts=recorder.call_ts,
        touch_seg=np.asarray(recorder.touch_seg, dtype=np.int64),
        touch_gap=np.asarray(recorder.touch_gap),
        touch_dl=np.asarray(recorder.touch_dl, dtype=bool),
        seg_size=np.asarray(recorder.seg_size, dtype=np.int64),
        seg_final_gap=seg_final_gap,
        seg_removed=seg_removed)


class _PassRecorder:
    """Call-stream and tier-touch recorder driven by the metadata pass."""

    __slots__ = ("call_kinds", "call_keys", "call_sizes", "call_ts",
                 "touch_seg", "touch_gap", "touch_dl", "seg_size",
                 "seg_of", "last_access", "closed_segments")

    def __init__(self):
        self.call_kinds: list[int] = []
        self.call_keys: list = []
        self.call_sizes: list[int] = []
        self.call_ts: list[float] = []
        self.touch_seg: list[int] = []
        self.touch_gap: list[float] = []
        self.touch_dl: list[bool] = []
        self.seg_size: list[int] = []
        self.seg_of: dict = {}
        self.last_access: dict = {}
        self.closed_segments: dict[int, float] = {}

    def call(self, kind: int, key, size: int, ts: float) -> None:
        self.call_kinds.append(kind)
        self.call_keys.append(key)
        self.call_sizes.append(size)
        self.call_ts.append(ts)

    def admit(self, key, size: int, ts: float) -> None:
        self.seg_of[key] = len(self.seg_size)
        self.seg_size.append(size)
        self.last_access[key] = ts

    def touch(self, key, ts: float, download: bool) -> None:
        self.touch_seg.append(self.seg_of[key])
        self.touch_gap.append(ts - self.last_access[key])
        self.touch_dl.append(download)
        self.last_access[key] = ts

    def remove(self, key, ts: float) -> None:
        seg = self.seg_of.pop(key)
        self.closed_segments[seg] = ts - self.last_access.pop(key)


def _simulate_age_policy(shared: _SharedPass,
                         policy: TieringPolicy) -> StorageAccounting:
    """Vectorised age-threshold tiering over the shared access-gap arrays.

    The lazily-realised age semantics make every tier counter a pure
    function of each object's touch gaps: a touch whose idle gap exceeds
    the threshold realises a demotion (and, with promotion enabled,
    immediately re-promotes), downloads served while cold pay retrievals,
    and the segment-closing gap decides the end-of-life demotion (at the
    physical delete or the finalize sweep).  With ``promote_on_access``
    every touch is independent; without it the object turns cold at its
    *first* crossing and stays cold — one unsorted ``minimum.at`` pass
    finds that crossing per segment.
    """
    threshold = policy.age_threshold
    accounting = replace(shared.accounting)
    seg = shared.touch_seg
    sizes_touch = shared.seg_size[seg] if seg.size else np.empty(0, np.int64)
    crossed = shared.touch_gap > threshold
    final_crossed = shared.seg_final_gap > threshold
    alive = ~shared.seg_removed
    if policy.promote_on_access:
        # Every crossing demotes and immediately promotes back; objects are
        # therefore hot after every touch and the touches are independent.
        cold_dl = shared.touch_dl & crossed
        n_crossed = int(crossed.sum())
        touch_migrated = int(sizes_touch[crossed].sum())
        n_final = int(final_crossed.sum())
        accounting.hot_hits = int((shared.touch_dl & ~crossed).sum())
        accounting.cold_hits = int(cold_dl.sum())
        accounting.cold_retrieved_bytes = int(sizes_touch[cold_dl].sum())
        accounting.migrations = 2 * n_crossed + n_final
        accounting.migrated_cold_bytes = touch_migrated \
            + int(shared.seg_size[final_crossed].sum())
        accounting.migrated_hot_bytes = touch_migrated
        cold_resident = alive & final_crossed
    else:
        # The first crossing per segment demotes for good; every touch from
        # that one on is served cold.  Touches append in time order, so the
        # first crossing is the minimum touch index per segment.
        n_segments = len(shared.seg_size)
        first_cross = np.full(n_segments, np.iinfo(np.int64).max)
        cross_positions = np.flatnonzero(crossed)
        np.minimum.at(first_cross, seg[cross_positions], cross_positions)
        served_cold = np.arange(seg.size) >= first_cross[seg]
        cold_dl = shared.touch_dl & served_cold
        seg_touch_crossed = first_cross < np.iinfo(np.int64).max
        final_demotes = ~seg_touch_crossed & final_crossed
        demoted = seg_touch_crossed | final_demotes
        accounting.hot_hits = int((shared.touch_dl & ~served_cold).sum())
        accounting.cold_hits = int(cold_dl.sum())
        accounting.cold_retrieved_bytes = int(sizes_touch[cold_dl].sum())
        accounting.migrations = int(demoted.sum())
        accounting.migrated_cold_bytes = int(shared.seg_size[demoted].sum())
        accounting.migrated_hot_bytes = 0
        cold_resident = alive & (seg_touch_crossed | final_crossed)
    accounting.cold_bytes = int(shared.seg_size[cold_resident].sum())
    accounting.hot_bytes = int(shared.seg_size[alive & ~cold_resident].sum())
    return accounting


def _replay_op_stream(shared: _SharedPass, spec: PolicySpec,
                      chunk_bytes: int, end_time: float) -> ObjectStore:
    """Drive a tiered store through the recorded baseline call stream.

    Tiering never changes which store calls happen, so the capacity
    policies (whose eviction heaps are inherently sequential) skip the
    node/volume metadata resolution and pay only the store calls.
    """
    store = ObjectStore(chunk_bytes=chunk_bytes, tiering=spec.tiering)
    put = store.put
    get = store.get
    link = store.link
    unlink = store.unlink
    for kind, key, size, ts in zip(shared.call_kinds, shared.call_keys,
                                   shared.call_sizes, shared.call_ts):
        if kind == _CALL_PUT:
            put(key, size, now=ts)
        elif kind == _CALL_GET:
            get(key, now=ts)
        elif kind == _CALL_LINK:
            link(key, now=ts)
        elif kind == _CALL_UNLINK:
            unlink(key, now=ts)
        else:  # _CALL_MPUT: one aggregate part, as in the metadata pass
            multipart_id = store.initiate_multipart(key, size)
            store.upload_part(multipart_id, size)
            store.complete_multipart(multipart_id, key, now=ts)
    store.finalize_tiers(end_time)
    return store


def _interpreted_pass(trace: StorageTrace, spec: PolicySpec,
                      chunk_bytes: int, end_time: float,
                      recorder: _PassRecorder | None = None) -> ObjectStore:
    """The full interpreted metadata + store pass.

    The loop below is a line-for-line mirror of the store interactions in
    :class:`~repro.backend.api_server.ApiServerProcess`'s request handlers
    (``_handle_upload`` / ``_handle_download`` / ``_handle_unlink`` /
    ``_handle_move`` / ``_handle_delete_volume`` plus ``_ensure_node`` and
    the quiet node registration of downloads); keep them in sync.  Object
    keys only need the same *equality structure* as the live store's string
    keys, so hashes stay factorised integer codes and the anonymous /
    no-dedup keys are tuples.

    With a ``recorder`` (shared-pass construction, baseline spec only)
    every store call and tier-relevant touch is logged as it happens.
    """
    store = ObjectStore(chunk_bytes=chunk_bytes, tiering=spec.tiering)
    dedup = spec.dedup
    delta = spec.delta_update_factor
    empty = trace.empty_hash
    # node id -> owning volume / current content hash; volume id -> node set
    # (the metadata slice the handlers consult before touching the store).
    node_volume: dict[int, int] = {}
    node_hash: dict[int, int] = {}
    volume_nodes: dict[int, set[int]] = {}
    objects = store._objects  # noqa: SLF001 - membership probes, as `in store`
    put = store.put
    get = store.get
    link = store.link
    unlink = store.unlink

    rec = recorder

    for ts, op, node, volume, user, size, update, h in zip(
            trace.ts, trace.ops, trace.nodes, trace.volumes, trace.users,
            trace.sizes, trace.updates, trace.hashes):
        if op == _DOWNLOAD:
            if node not in node_volume:
                # Files downloaded without an in-trace upload predate the
                # measurement window; the back-end registers them quietly.
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
                if h != empty:
                    node_hash[node] = h
            if h != empty:
                if h not in objects:
                    if rec is not None:
                        rec.call(_CALL_PUT, h, size, ts)
                        rec.admit(h, size, ts)
                    put(h, size, now=ts)
                if rec is not None:
                    rec.call(_CALL_GET, h, 0, ts)
                    rec.touch(h, ts, True)
                get(h, now=ts)
        elif op == _UPLOAD:
            if node not in node_volume:  # _ensure_node
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
            if delta is not None and update:
                size = max(1, int(size * delta))
            if dedup and h != empty and h in objects:
                if rec is not None:
                    rec.call(_CALL_LINK, h, 0, ts)
                    rec.touch(h, ts, False)
                link(h, now=ts)
            else:
                key = h if h != empty else ("anon", node)
                if not dedup:
                    # Per-(user, node) keys physically duplicate identical
                    # contents — the no-dedup ablation.
                    key = (key, user, node)
                if rec is not None:
                    rec.call(_CALL_PUT if size <= chunk_bytes else _CALL_MPUT,
                             key, size, ts)
                    if key in objects:
                        rec.touch(key, ts, False)
                    else:
                        rec.admit(key, size, ts)
                if size <= chunk_bytes:
                    put(key, size, now=ts)
                else:
                    # One aggregate part is accounting-equivalent to the
                    # per-chunk schedule (same uploaded/committed bytes).
                    multipart_id = store.initiate_multipart(key, size)
                    store.upload_part(multipart_id, size)
                    store.complete_multipart(multipart_id, key, now=ts)
            node_hash[node] = h  # make_content
        elif op == _UNLINK:
            old_volume = node_volume.pop(node, None)
            if old_volume is not None:
                volume_nodes[old_volume].discard(node)
                h_node = node_hash.pop(node, empty)
                if h_node != empty and h_node in objects:
                    if rec is not None:
                        rec.call(_CALL_UNLINK, h_node, 0, ts)
                        if unlink(h_node, now=ts):
                            rec.remove(h_node, ts)
                    else:
                        unlink(h_node, now=ts)
        elif op == _MAKE:
            if node not in node_volume:
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
        elif op == _MOVE:
            old_volume = node_volume.get(node)
            if old_volume is None:  # _ensure_node (straight into the target)
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
            elif old_volume != volume:
                volume_nodes[old_volume].discard(node)
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
        else:  # DELETE_VOLUME: cascade-delete the contained nodes
            doomed = volume_nodes.pop(volume, None)
            if doomed:
                for dead in sorted(doomed):
                    node_volume.pop(dead, None)
                    h_node = node_hash.pop(dead, empty)
                    if h_node != empty and h_node in objects:
                        if rec is not None:
                            rec.call(_CALL_UNLINK, h_node, 0, ts)
                            if unlink(h_node, now=ts):
                                rec.remove(h_node, ts)
                        else:
                            unlink(h_node, now=ts)

    store.finalize_tiers(end_time)
    return store
