"""Deterministic shard checkpoints: spill completed ``ShardOutcome``\\ s to disk.

Because every replay shard is a pure function of ``(config, plan member)``
(PR 3), a completed shard's outcome can be persisted and later substituted
for re-execution **bit-identically** — which is what makes ``--resume``
sound: a killed run re-executes only the shards that never finished, and
the merged trace is indistinguishable from an undisturbed run.

Layout: one ``.npz`` file per shard under a run directory keyed by a hash
of the *work* (cluster configuration, workload configuration and the
per-shard workload fingerprints), plus a write-ahead run manifest::

    <checkpoint_root>/<run_key>/MANIFEST.json
    <checkpoint_root>/<run_key>/shard-0003.npz

The run key deliberately covers everything that determines a shard's
output: the frozen ``ClusterConfig`` (seed, shard layout, fault plan,
...), the plan's frozen ``WorkloadConfig`` (seed, scale, file and
update models, ...) and the workload handed to each shard (plan member
indices and planned-op weights).  Two runs share checkpoints only when they
would compute identical outcomes; anything else hashes to a different
directory and never collides.

``MANIFEST.json`` is the run directory's source of truth (PR 8): format
versions, run-key inputs summary, shard count, per-shard sha256 + byte
size + timings, and the run status (``in-progress`` / ``interrupted`` /
``partial`` / ``complete``).  It is rewritten atomically after every
spill, so a resume validates checksums against the manifest instead of
blind-trusting npz parsing, and ``repro verify`` can audit the directory
offline.

The file format is columnar and **pickle-free**: the three trace streams'
NumPy columns are stored as native npz arrays (the bulk of the payload)
and the small counter summaries travel as a JSON metadata blob with typed
reconstruction — a corrupt or foreign checkpoint can therefore never
execute code on load.  Writes are atomic and fsync-durable
(:mod:`repro.util.atomicio`), so a worker killed mid-spill leaves no
truncated checkpoint — and anything that fails validation is treated as
*absent* (the shard simply re-executes) rather than an error.

Resource guard: the spill path is ENOSPC-aware.  When the free space on
the checkpoint filesystem would drop below ``min_free_bytes`` (or a write
actually hits ``ENOSPC``), checkpointing degrades to in-memory with a
:class:`RuntimeWarning` instead of crashing the run — completed outcomes
still merge normally, they just stop spilling.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import re
import time
import warnings
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from repro.trace.dataset import ColumnBlock
from repro.util.atomicio import atomic_write_bytes, atomic_write_json

__all__ = [
    "CHECKPOINT_FORMAT",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "SHARD_FILE_PATTERN",
    "CheckpointStore",
    "run_inputs_summary",
    "run_key",
]

#: Bump when the checkpoint layout changes: old files then silently miss
#: (the format also feeds :func:`run_key`, so old *directories* are never
#: even visited).  2 = JSON metadata blob + write-ahead manifest;
#: 3 = process counters carry their address, and the replay sub-phase
#: seconds are stored; 4 = the store summary is ``(users, nodes,
#: requests)``; 5 = no store summary, and the process counters are the
#: address and the notification pushes only.
CHECKPOINT_FORMAT = 5
_FORMAT = CHECKPOINT_FORMAT

#: Version of the ``MANIFEST.json`` schema itself.
MANIFEST_FORMAT = 1

MANIFEST_NAME = "MANIFEST.json"

#: Exact shard checkpoint file names: ``shard-NNNN.npz`` (zero-padded to at
#: least four digits, nothing else).  Anything that merely *contains* a
#: shard-like prefix (``shard-3-extra.npz``) is foreign and never matches.
SHARD_FILE_PATTERN = re.compile(r"shard-(\d{4,})\.npz")

#: Stop spilling when the checkpoint filesystem's free space would drop
#: below this (the run itself still needs headroom for its own artifacts).
DEFAULT_MIN_FREE_BYTES = 64 * 1024 * 1024

_STREAMS = ("storage", "rpc", "sessions")


def run_key(config, workloads) -> str:
    """Stable hex digest identifying one (config, workload) replay.

    A pure function of the cluster configuration, the plan's workload
    configuration and the per-shard workloads — never of the worker count,
    attempt number or wall clock — so retries, resumes and different
    ``--jobs`` all map to the same run directory.  Two workload
    configurations can plan the same member weights and still materialize
    different events (update and duplicate fractions, file sizes), so the
    workload configuration is hashed too.
    """
    digest = hashlib.sha256()
    digest.update(f"format:{_FORMAT};".encode())
    digest.update(repr(config).encode())
    digest.update(f";shards:{len(workloads)};".encode())
    # Each plan's config and member weights are encoded once and fed to
    # the digest once per shard.
    encoded: dict[int, tuple[bytes, bytes]] = {}
    for shard_id, workload in enumerate(workloads):
        plan = workload.plan
        if id(plan) not in encoded:
            encoded[id(plan)] = (f"workload:{plan.config!r};".encode(),
                                 repr(plan.member_weights()).encode())
        config_bytes, weight_bytes = encoded[id(plan)]
        digest.update(f"shard:{shard_id}:".encode())
        digest.update(config_bytes)
        digest.update(f"members:{workload.members!r};".encode())
        digest.update(weight_bytes)
    return digest.hexdigest()


def run_inputs_summary(config, workloads) -> dict:
    """Human-auditable summary of what :func:`run_key` hashed.

    Stored in the manifest so ``repro verify`` (and a human reading the
    run directory) can see what a key stands for without re-deriving it.
    """
    return {
        "config_sha256": hashlib.sha256(repr(config).encode()).hexdigest(),
        "workload_config_sha256": sorted({
            hashlib.sha256(repr(w.plan.config).encode()).hexdigest()
            for w in workloads}),
        "n_shards": len(workloads),
    }


# ---------------------------------------------------------------------------
# Outcome (de)serialisation — columnar npz + JSON metadata, no pickle
# ---------------------------------------------------------------------------

def _accounting_to_json(value) -> dict:
    """A counter dataclass as a JSON object of plain ints/floats."""
    payload = {}
    for spec in dataclass_fields(value):
        field_value = getattr(value, spec.name)
        payload[spec.name] = (float(field_value)
                              if isinstance(spec.default, float)
                              else int(field_value))
    return payload


def _accounting_from_json(cls, payload: dict):
    """Typed reconstruction of a counter dataclass (strict field match)."""
    known = {spec.name for spec in dataclass_fields(cls)}
    if set(payload) != known:
        raise ValueError(f"{cls.__name__} fields do not match checkpoint")
    return cls(**payload)


def _pack_outcome(outcome) -> bytes:
    """Serialise a ``ShardOutcome`` as columnar npz bytes (pickle-free)."""
    arrays: dict[str, np.ndarray] = {}
    categories: dict[str, dict[str, list]] = {}
    counts: dict[str, int] = {}
    for stream in _STREAMS:
        block: ColumnBlock = getattr(outcome, stream)
        counts[stream] = int(block.n)
        for name, arr in block.cols.items():
            arrays[f"{stream}.col.{name}"] = arr
        categories[stream] = {}
        for name, (codes, cats) in block.codes.items():
            arrays[f"{stream}.code.{name}"] = codes
            categories[stream][name] = list(cats)
    meta = {
        "format": _FORMAT,
        "shard_id": int(outcome.shard_id),
        "seconds": float(outcome.seconds),
        "generate_seconds": float(outcome.generate_seconds),
        "n_events": int(outcome.n_events),
        "ipc_bytes": int(outcome.ipc_bytes),
        "process_counters": {
            int(index): [totals.address.server, int(totals.address.process),
                         int(totals.notifications_pushed)]
            for index, totals in outcome.process_counters.items()},
        "gateway_totals": {int(index): int(count)
                           for index, count in outcome.gateway_totals.items()},
        "object_count": int(outcome.object_count),
        "accounting": _accounting_to_json(outcome.accounting),
        "faults": (_accounting_to_json(outcome.faults)
                   if outcome.faults is not None else None),
        "gc_sweeps": int(outcome.gc_sweeps),
        "timeline_end": float(outcome.timeline_end),
        "block_build_seconds": float(outcome.block_build_seconds),
        "dispatch_seconds": float(outcome.dispatch_seconds),
        "pack_seconds": float(outcome.pack_seconds),
        "counts": counts,
        "categories": categories,
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                   dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _unpack_outcome(payload: bytes):
    """Rebuild a ``ShardOutcome`` from checkpoint bytes (raises on mismatch).

    The metadata blob is JSON with *typed reconstruction* — no pickle is
    involved anywhere (the arrays load with ``allow_pickle=False``), so
    untrusted checkpoint bytes can fail to parse but never execute code.
    """
    from repro.backend.datastore import StorageAccounting
    from repro.backend.gateway import ProcessAddress
    from repro.backend.replay_shard import ProcessTotals, ShardOutcome
    from repro.faults.accounting import FaultAccounting

    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    if meta["format"] != _FORMAT:
        raise ValueError(f"checkpoint format {meta['format']} != {_FORMAT}")
    blocks: dict[str, ColumnBlock] = {}
    for stream in _STREAMS:
        cols = {name[len(stream) + 5:]: arr for name, arr in arrays.items()
                if name.startswith(f"{stream}.col.")}
        codes = {name[len(stream) + 6:]:
                 (arr, meta["categories"][stream][name[len(stream) + 6:]])
                 for name, arr in arrays.items()
                 if name.startswith(f"{stream}.code.")}
        blocks[stream] = ColumnBlock(meta["counts"][stream], cols, codes)
    return ShardOutcome(
        shard_id=meta["shard_id"],
        seconds=meta["seconds"],
        generate_seconds=meta["generate_seconds"],
        storage=blocks["storage"],
        rpc=blocks["rpc"],
        sessions=blocks["sessions"],
        n_events=meta["n_events"],
        ipc_bytes=meta["ipc_bytes"],
        process_counters={
            int(index): ProcessTotals(
                ProcessAddress(str(row[0]), int(row[1])), int(row[2]))
            for index, row in meta["process_counters"].items()},
        gateway_totals={int(index): int(count)
                        for index, count in meta["gateway_totals"].items()},
        object_count=meta["object_count"],
        accounting=_accounting_from_json(StorageAccounting,
                                         meta["accounting"]),
        faults=(_accounting_from_json(FaultAccounting, meta["faults"])
                if meta["faults"] is not None else None),
        gc_sweeps=meta["gc_sweeps"],
        timeline_end=meta["timeline_end"],
        block_build_seconds=meta["block_build_seconds"],
        dispatch_seconds=meta["dispatch_seconds"],
        pack_seconds=meta["pack_seconds"])


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class CheckpointStore:
    """Per-run checkpoint directory: atomic ``.npz`` spills + run manifest.

    The manifest is write-ahead in the fsck sense: it is (re)written
    atomically at construction (status ``in-progress``), after *every*
    shard spill (the new entry's checksum lands before anyone could trust
    the file) and at :meth:`finalize` — so the directory is auditable at
    any instant, including after a SIGKILL.
    """

    def __init__(self, root: Path | str, key: str, *,
                 n_shards: int | None = None,
                 inputs: dict | None = None,
                 min_free_bytes: int = DEFAULT_MIN_FREE_BYTES):
        self.root = Path(root)
        self.key = key
        self.run_dir = self.root / key
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.min_free_bytes = min_free_bytes
        #: Why spilling stopped (``None`` while spilling is healthy).
        self.disabled_reason: str | None = None
        self._manifest = self._load_manifest()
        if self._manifest is None:
            self._manifest = {
                "manifest_format": MANIFEST_FORMAT,
                "checkpoint_format": _FORMAT,
                "run_key": key,
                "status": "in-progress",
                "n_shards": n_shards,
                "inputs": inputs,
                "created_at": time.time(),
                "updated_at": time.time(),
                "shards": {},
            }
        else:
            # A fresh run over an existing directory (resume or retry):
            # the key matched, so the inputs are the same work by
            # construction — just mark it live again.
            self._manifest["status"] = "in-progress"
            if n_shards is not None:
                self._manifest["n_shards"] = n_shards
            if inputs is not None:
                self._manifest["inputs"] = inputs
        self._write_manifest()

    # ------------------------------------------------------------- plumbing
    @property
    def disabled(self) -> bool:
        """True once spilling degraded to in-memory (ENOSPC guard)."""
        return self.disabled_reason is not None

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    def manifest(self) -> dict:
        """The current manifest (the in-memory copy; do not mutate)."""
        return self._manifest

    def path(self, shard_id: int) -> Path:
        """Checkpoint path of one shard."""
        return self.run_dir / f"shard-{shard_id:04d}.npz"

    def _load_manifest(self) -> dict | None:
        """The on-disk manifest, or ``None`` when absent/foreign/invalid."""
        try:
            data = json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("manifest_format") != MANIFEST_FORMAT:
            return None
        if data.get("checkpoint_format") != _FORMAT:
            return None
        if data.get("run_key") != self.key:
            return None
        if not isinstance(data.get("shards"), dict):
            return None
        return data

    def _write_manifest(self) -> None:
        if self.disabled:
            return
        self._manifest["updated_at"] = time.time()
        try:
            self._guard_free_space(0)
            atomic_write_json(self.manifest_path, self._manifest)
        except OSError as exc:
            self._degrade(exc)

    def _guard_free_space(self, payload_bytes: int) -> None:
        """Raise ``ENOSPC`` before a write that would exhaust the disk."""
        try:
            stats = os.statvfs(self.run_dir)
        except (OSError, AttributeError):  # pragma: no cover - exotic FS
            return
        free = stats.f_bavail * stats.f_frsize
        if free < payload_bytes + self.min_free_bytes:
            raise OSError(errno.ENOSPC, "checkpoint filesystem below "
                          f"min_free_bytes ({free} free)")

    def _degrade(self, exc: OSError) -> None:
        """Stop spilling (in-memory degradation) instead of failing the run."""
        self.disabled_reason = f"{exc}"
        warnings.warn(
            f"checkpointing disabled for {self.run_dir}: {exc}; the run "
            "continues in-memory (completed shards will not be resumable)",
            RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------ save/load
    def save(self, outcome) -> Path | None:
        """Atomically spill one completed shard outcome + manifest entry.

        Returns the checkpoint path, or ``None`` once spilling has
        degraded to in-memory (disk full) — the caller's outcome is still
        merged normally either way.
        """
        if self.disabled:
            return None
        payload = _pack_outcome(outcome)
        path = self.path(outcome.shard_id)
        try:
            self._guard_free_space(len(payload))
            atomic_write_bytes(path, payload)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                self._degrade(exc)
                return None
            raise
        self._manifest["shards"][str(int(outcome.shard_id))] = {
            "file": path.name,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
            "status": "complete",
            "seconds": float(outcome.seconds),
            "generate_seconds": float(outcome.generate_seconds),
            "n_events": int(outcome.n_events),
            "saved_at": time.time(),
        }
        self._write_manifest()
        return path

    def load(self, shard_id: int):
        """The checkpointed outcome of ``shard_id``, or ``None``.

        Trust flows through the manifest: a shard without a manifest entry,
        whose file is missing/truncated, or whose bytes do not hash to the
        recorded sha256 reads as "not checkpointed" — the caller re-executes
        the shard, which is always correct (just slower).  Parsing only
        happens after the checksum matched.
        """
        entry = self._manifest["shards"].get(str(shard_id))
        path = self.path(shard_id)
        if entry is None or entry.get("file") != path.name:
            return None
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        if len(payload) != entry.get("bytes"):
            return None
        if hashlib.sha256(payload).hexdigest() != entry.get("sha256"):
            return None
        try:
            outcome = _unpack_outcome(payload)
        except Exception:
            return None
        if outcome.shard_id != shard_id:
            return None
        return outcome

    def completed(self) -> list[int]:
        """Shard ids with a manifest entry and a present checkpoint file.

        Only exact ``shard-NNNN.npz`` names count — foreign files like
        ``shard-3-extra.npz`` never match (their checksums are not in the
        manifest either).
        """
        ids = []
        for shard_key, entry in self._manifest["shards"].items():
            match = SHARD_FILE_PATTERN.fullmatch(entry.get("file", ""))
            if match is None or int(match.group(1)) != int(shard_key):
                continue
            if (self.run_dir / entry["file"]).is_file():
                ids.append(int(shard_key))
        return sorted(ids)

    # ------------------------------------------------------------- lifecycle
    def finalize(self, status: str, *, metrics: dict | None = None,
                 extra: dict | None = None) -> None:
        """Record the run's final status (``complete``/``partial``/
        ``interrupted``) in the manifest.

        ``metrics`` (the run's own supervision accounting,
        :meth:`~repro.backend.supervisor.SupervisionReport.as_stats`) lands
        under the manifest's ``metrics`` key and ``extra`` (interrupt
        forensics — reason, signal, RSS high-water) under ``interrupt``.
        The run's ``events.jsonl`` is replayed into a per-type event
        summary, so the manifest alone answers *what happened* after the
        run directory's shard files are long merged.
        """
        from repro.util import telemetry

        self._manifest["status"] = status
        if metrics is not None:
            self._manifest["metrics"] = dict(metrics)
        if extra:
            self._manifest["interrupt"] = dict(extra)
        else:
            # A resumed run's manifest must not keep an earlier run's block.
            self._manifest.pop("interrupt", None)
        if not self.disabled:
            events_path = self.run_dir / telemetry.EVENTS_NAME
            if events_path.is_file():
                events = telemetry.read_events(events_path)
                by_type: dict[str, int] = {}
                for record in events:
                    name = str(record.get("event", "?"))
                    by_type[name] = by_type.get(name, 0) + 1
                self._manifest["events"] = {
                    "file": telemetry.EVENTS_NAME,
                    "total": len(events),
                    "by_type": dict(sorted(by_type.items())),
                }
        self._write_manifest()
