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

The policies that keep baseline store semantics share one *metadata pass*
per trace (:meth:`StorageTrace.shared_pass`): the node/volume bookkeeping
runs once, recording the tier-event log — one ``(kind, segment, ts)`` tuple
per object admission, touch, download and physical removal.  Tiering is
applied to that log afterwards: the age-only (no-capacity) family fully
vectorised over the per-segment idle gaps (:func:`_simulate_age_policy`),
capacity-eviction policies through a
:class:`~repro.whatif.tiering.TierEngine` (their eviction heaps are
inherently sequential).  Only semantics-changing specs (no-dedup, delta
updates) pay their own interpreted pass, which records the log when the
spec is tiered.  A default five-policy sweep therefore costs one replay
plus three interpreted passes.

The pass drives a plain (single-tier)
:class:`~repro.backend.datastore.ObjectStore`, so the untiered counters of
the produced :class:`~repro.backend.datastore.StorageAccounting` are
*identical* to what a live replay with the same dedup and delta knobs
produces — the equivalence tests pin this — under two conditions the
caller controls:

* ``replay_shards=1`` on the live side (the offline store is global; with
  more shards, dedup state becomes per-shard — the documented model
  caveat);
* ``interrupted_upload_fraction=0.0`` (interrupted multiparts leave a trace
  record but no store commit, and the trace does not say which).

Faults need no condition: a request that failed on a fault carries its
``error_kind`` in the trace, and :meth:`StorageTrace.from_dataset` drops
it, as the live store never executed it.

The tier counters exist only here: the live back-end has one tier.  The
sweep measures idle time up to ``end_time``, which callers set to the
replay's ``U1Cluster.last_replay_stats["timeline_end"]``.

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
from repro.whatif.tiering import (
    ADMIT,
    DOWNLOAD,
    REMOVE,
    TOUCH,
    TierEngine,
    TieringPolicy,
)

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
        self._shared_passes: dict[tuple, _MetadataPass] = {}

    def shared_pass(self, chunk_bytes: int,
                    end_time: float) -> "_MetadataPass":
        """The baseline-semantics metadata pass of this trace, built once.

        Every policy with baseline store semantics (``dedup`` on, full
        re-uploads) drives the object store through the *same* calls —
        tiering changes how objects migrate, never which calls happen.  The
        shared pass therefore runs the metadata bookkeeping once and keeps
        the baseline accounting and the tier-event log every tiered policy
        of that family replays.
        """
        key = (chunk_bytes, end_time)
        shared = self._shared_passes.get(key)
        if shared is None:
            shared = self._shared_passes[key] = _metadata_pass(
                self, PolicySpec("baseline"), chunk_bytes, end_time,
                record=True)
        return shared

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_dataset(cls, dataset: TraceDataset) -> "StorageTrace":
        """Decode the store-relevant slice of a dataset's storage stream.

        Rows whose ``error_kind`` is set are dropped: the request failed on
        a fault, so the live store never executed it.
        """
        ops = dataset.storage_column("operation")
        error_codes, error_kinds = dataset.storage_codes("error_kind")
        served = np.array([not kind for kind in error_kinds], dtype=bool)
        index = np.flatnonzero(np.isin(ops, _RELEVANT) & served[error_codes])
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

    Two steps:

    * resolve the spec's store semantics through one metadata pass.
      Baseline semantics (dedup on, full re-uploads) reuse the trace's
      memoised :meth:`StorageTrace.shared_pass`; ``dedup=False`` or a
      delta-update factor takes its own interpreted pass
      (:func:`_interpreted_pass`), which records the tier-event log only
      when the spec is tiered;
    * apply the spec's tiering to that pass's tier-event log.  An
      **age-only** policy runs the vectorised gap kernel
      (:func:`_simulate_age_policy`); a capacity-eviction policy drives a
      :class:`~repro.whatif.tiering.TierEngine`, whose eviction heap is
      inherently sequential.

    The untiered counters equal a live replay's with the same dedup and
    delta knobs (see the module docstring); the tier counters come from
    the tiering what-if alone.
    """
    started = time.perf_counter()
    cost_model = cost_model or StorageCostModel()
    end = trace.end_time if end_time is None else end_time
    tiering = spec.tiering
    if spec.dedup and spec.delta_update_factor is None:
        resolved = trace.shared_pass(chunk_bytes, end)
    else:
        resolved = _metadata_pass(trace, spec, chunk_bytes, end,
                                  record=tiering is not None)
    counters = {}
    if tiering is not None:
        if tiering.hot_capacity_bytes is None:
            counters = _simulate_age_policy(resolved, tiering)
        else:
            counters = TierEngine(tiering, resolved.sizes).run(
                resolved.events, end).counters()
    accounting = replace(resolved.accounting, **counters)
    return PolicyOutcome(
        spec=spec,
        accounting=accounting,
        object_count=resolved.object_count,
        seconds=time.perf_counter() - started,
        costs=cost_model.cost_breakdown(accounting),
        monthly_cost=cost_model.monthly_total(accounting))


class _MetadataPass:
    """The outcome of one interpreted metadata pass.

    ``accounting``/``object_count`` are the untiered store's outcome.  A
    recorded pass also keeps the tier-event log: ``events`` holds one
    ``(kind, segment, ts)`` tuple per admit, touch, download and removal,
    and ``sizes[segment]`` is the size of each object life (admission to
    physical removal or end of trace), numbered in admission order.
    """

    __slots__ = ("accounting", "object_count", "end_time", "events", "sizes",
                 "_gaps")

    def __init__(self, accounting, object_count, end_time, events, sizes):
        self.accounting = accounting
        self.object_count = object_count
        self.end_time = end_time
        self.events = events
        self.sizes = sizes
        self._gaps = None

    def gaps(self) -> tuple:
        """Per-touch and per-segment idle gaps of the log, built once.

        Returns ``(touch_seg, touch_gap, touch_dl, seg_size, seg_final_gap,
        seg_removed)``: per touch (or download) its segment, the idle gap
        since the segment's previous event and whether it was a download;
        per segment its size, the closing idle gap (to its removal or to
        ``end_time``) and whether it ended in a removal — the quantities
        the lazily realised age semantics are a pure function of.  Touches
        are grouped by segment, in time order within each.
        """
        if self._gaps is None:
            log = np.fromiter(self.events, dtype=_EVENT_DTYPE,
                              count=len(self.events))
            log = log[np.argsort(log["seg"], kind="stable")]
            kinds, segs, ts = log["kind"], log["seg"], log["ts"]
            # A segment's first event is its admission, so the difference to
            # the previous row is the idle gap wherever it is read.
            gap = np.diff(ts, prepend=0.0)
            touched = (kinds == TOUCH) | (kinds == DOWNLOAD)
            last = np.ones(len(segs), dtype=bool)  # a segment's last event
            last[:-1] = segs[1:] != segs[:-1]
            removed = kinds[last] == REMOVE
            self._gaps = (
                segs[touched], gap[touched], kinds[touched] == DOWNLOAD,
                np.asarray(self.sizes, dtype=np.int64),
                np.where(removed, gap[last], self.end_time - ts[last]),
                removed)
        return self._gaps


#: Row layout of a tier-event log decoded for the age kernel.
_EVENT_DTYPE = np.dtype([("kind", np.int8), ("seg", np.int64),
                         ("ts", np.float64)])


def _metadata_pass(trace: StorageTrace, spec: PolicySpec, chunk_bytes: int,
                   end_time: float, record: bool) -> _MetadataPass:
    """Run one interpreted pass, recording the tier-event log if asked."""
    recorder = _PassRecorder() if record else None
    store = _interpreted_pass(trace, spec, chunk_bytes, recorder)
    return _MetadataPass(
        store.accounting, len(store), end_time,
        recorder.events if record else None,
        recorder.sizes if record else None)


class _PassRecorder:
    """Tier-event recorder driven by the metadata pass."""

    __slots__ = ("events", "sizes", "seg_of")

    def __init__(self):
        self.events: list[tuple[int, int, float]] = []
        self.sizes: list[int] = []
        #: Live object key -> its current segment ordinal.
        self.seg_of: dict = {}

    def admit(self, key, size: int, ts: float) -> None:
        seg = self.seg_of[key] = len(self.sizes)
        self.sizes.append(size)
        self.events.append((ADMIT, seg, ts))

    def touch(self, key, ts: float, kind: int) -> None:
        self.events.append((kind, self.seg_of[key], ts))

    def remove(self, key, ts: float) -> None:
        self.events.append((REMOVE, self.seg_of.pop(key), ts))


def _simulate_age_policy(resolved: _MetadataPass,
                         policy: TieringPolicy) -> dict[str, int]:
    """Vectorised age-threshold tiering over a pass's idle-gap arrays.

    The lazily-realised age semantics make every tier counter a pure
    function of each object's touch gaps: a touch whose idle gap exceeds
    the threshold realises a demotion (and, with promotion enabled,
    immediately re-promotes), downloads served while cold pay retrievals,
    and the segment-closing gap decides the end-of-life demotion (at the
    physical delete or the finalize sweep).  With ``promote_on_access``
    every touch is independent; without it the object turns cold at its
    *first* crossing and stays cold — one unsorted ``minimum.at`` pass
    finds that crossing per segment.  Returns the :data:`TIER_FIELDS`
    counters.
    """
    threshold = policy.age_threshold
    seg, touch_gap, touch_dl, seg_size, seg_final_gap, seg_removed = \
        resolved.gaps()
    sizes_touch = seg_size[seg] if seg.size else np.empty(0, np.int64)
    crossed = touch_gap > threshold
    final_crossed = seg_final_gap > threshold
    alive = ~seg_removed
    if policy.promote_on_access:
        # Every crossing demotes and immediately promotes back; objects are
        # therefore hot after every touch and the touches are independent.
        cold_dl = touch_dl & crossed
        n_crossed = int(crossed.sum())
        touch_migrated = int(sizes_touch[crossed].sum())
        counters = {
            "hot_hits": int((touch_dl & ~crossed).sum()),
            "migrations": 2 * n_crossed + int(final_crossed.sum()),
            "migrated_cold_bytes": touch_migrated
            + int(seg_size[final_crossed].sum()),
            "migrated_hot_bytes": touch_migrated,
        }
        cold_resident = alive & final_crossed
    else:
        # The first crossing per segment demotes for good; every touch from
        # that one on is served cold.  Touches are in time order within a
        # segment, so the first crossing is the minimum touch index per
        # segment.
        first_cross = np.full(len(seg_size), np.iinfo(np.int64).max)
        cross_positions = np.flatnonzero(crossed)
        np.minimum.at(first_cross, seg[cross_positions], cross_positions)
        served_cold = np.arange(seg.size) >= first_cross[seg]
        cold_dl = touch_dl & served_cold
        seg_touch_crossed = first_cross < np.iinfo(np.int64).max
        demoted = seg_touch_crossed | final_crossed
        counters = {
            "hot_hits": int((touch_dl & ~served_cold).sum()),
            "migrations": int(demoted.sum()),
            "migrated_cold_bytes": int(seg_size[demoted].sum()),
            "migrated_hot_bytes": 0,
        }
        cold_resident = alive & demoted
    counters["cold_hits"] = int(cold_dl.sum())
    counters["cold_retrieved_bytes"] = int(sizes_touch[cold_dl].sum())
    counters["cold_bytes"] = int(seg_size[cold_resident].sum())
    counters["hot_bytes"] = int(seg_size[alive & ~cold_resident].sum())
    return counters


def _interpreted_pass(trace: StorageTrace, spec: PolicySpec,
                      chunk_bytes: int,
                      recorder: _PassRecorder | None = None) -> ObjectStore:
    """The full interpreted metadata + store pass.

    The loop below is a line-for-line mirror of the store interactions in
    :class:`~repro.backend.api_server.ApiServerProcess`: the download path
    inlined in ``handle_event`` (with its quiet registration of nodes that
    predate the trace) and the ``_handle_upload`` / ``_handle_unlink`` /
    ``_handle_move`` / ``_handle_delete_volume`` handlers (upload and move
    first register a node the shard does not hold); keep them in sync.  Object
    keys only need the same *equality structure* as the live store's string
    keys, so hashes stay factorised integer codes and the anonymous /
    no-dedup keys are tuples.

    With a ``recorder`` every tier event (admission, touch, download,
    physical removal) is logged as it happens.
    """
    store = ObjectStore(chunk_bytes=chunk_bytes)
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
                        rec.admit(h, size, ts)
                    put(h, size)
                if rec is not None:
                    rec.touch(h, ts, DOWNLOAD)
                get(h)
        elif op == _UPLOAD:
            if node not in node_volume:  # _handle_upload makes the node
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
            if delta is not None and update:
                size = max(1, int(size * delta))
            if dedup and h != empty and h in objects:
                if rec is not None:
                    rec.touch(h, ts, TOUCH)
                link(h)
            else:
                key = h if h != empty else ("anon", node)
                if not dedup:
                    # Per-(user, node) keys physically duplicate identical
                    # contents — the no-dedup ablation.
                    key = (key, user, node)
                if rec is not None:
                    if key in objects:
                        rec.touch(key, ts, TOUCH)
                    else:
                        rec.admit(key, size, ts)
                if size <= chunk_bytes:
                    put(key, size)
                else:
                    # One aggregate part is accounting-equivalent to the
                    # per-chunk schedule (same uploaded/committed bytes).
                    multipart_id = store.initiate_multipart(key, size)
                    store.upload_part(multipart_id, size)
                    store.complete_multipart(multipart_id, key)
            node_hash[node] = h  # make_content
        elif op == _UNLINK:
            old_volume = node_volume.pop(node, None)
            if old_volume is not None:
                volume_nodes[old_volume].discard(node)
                h_node = node_hash.pop(node, empty)
                if h_node != empty and h_node in objects \
                        and unlink(h_node) and rec is not None:
                    rec.remove(h_node, ts)
        elif op == _MAKE:
            if node not in node_volume:
                node_volume[node] = volume
                volume_nodes.setdefault(volume, set()).add(node)
        elif op == _MOVE:
            old_volume = node_volume.get(node)
            if old_volume is None:  # registered quietly, into the target
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
                    if h_node != empty and h_node in objects \
                            and unlink(h_node) and rec is not None:
                        rec.remove(h_node, ts)
    return store
