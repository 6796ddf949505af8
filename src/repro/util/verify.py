"""Offline integrity audit (fsck) of checkpoint run directories.

``python -m repro verify <dir>`` walks a checkpoint directory — one run
directory or a root containing several — and checks everything
``--resume`` would trust: the ``MANIFEST.json`` parses, its format
versions and run key are coherent, every shard entry's file exists with
the recorded byte size and sha256, the payload actually reconstructs into
the right shard, and nothing unexplained lives in the directory.

Findings carry a severity:

* ``repairable`` — the damage is confined to shard payloads the run can
  simply re-execute (``--resume`` treats the shard as absent): a missing,
  truncated or checksum-mismatched checkpoint, an orphan shard file with
  no manifest entry, a stale ``.tmp`` left by an interrupted atomic write.
* ``fatal`` — the run directory itself cannot be trusted: missing or
  unreadable manifest, format-version or run-key mismatch, a manifest
  that claims ``complete`` with the wrong shard count, or foreign files
  that were never written by this tool.

The audit is read-only and pickle-free end to end (see
:mod:`repro.util.checkpoint`): verifying a hostile directory can report
corruption but never execute its content.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.util.checkpoint import (
    CHECKPOINT_FORMAT,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    SHARD_FILE_PATTERN,
    _unpack_outcome,
)
from repro.util.telemetry import EVENTS_NAME

__all__ = ["Finding", "verify_run_dir", "verify_tree"]

FATAL = "fatal"
REPAIRABLE = "repairable"


@dataclass(frozen=True)
class Finding:
    """One integrity violation found by the audit."""

    #: Stable identifier ("checksum-mismatch", "manifest-missing", ...).
    code: str
    #: ``repairable`` (re-execution fixes it) or ``fatal``.
    severity: str
    #: File or directory the finding is about.
    path: str
    #: Shard id when the finding concerns one shard (``None`` otherwise).
    shard_id: int | None
    detail: str

    def as_dict(self) -> dict:
        return {"code": self.code, "severity": self.severity,
                "path": self.path, "shard_id": self.shard_id,
                "detail": self.detail}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        shard = f" shard {self.shard_id}" if self.shard_id is not None else ""
        return f"[{self.severity}] {self.code}{shard}: {self.path} — " \
               f"{self.detail}"


def _load_manifest(run_dir: Path) -> tuple[dict | None, list[Finding]]:
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        return None, [Finding("manifest-missing", FATAL, str(manifest_path),
                              None, "run directory has no MANIFEST.json")]
    try:
        data = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return None, [Finding("manifest-unreadable", FATAL,
                              str(manifest_path), None, str(exc))]
    if not isinstance(data, dict) or not isinstance(data.get("shards"), dict):
        return None, [Finding("manifest-invalid", FATAL, str(manifest_path),
                              None, "manifest is not a shard-map object")]
    findings = []
    if data.get("manifest_format") != MANIFEST_FORMAT:
        findings.append(Finding(
            "manifest-format", FATAL, str(manifest_path), None,
            f"manifest_format {data.get('manifest_format')!r} != "
            f"{MANIFEST_FORMAT}"))
    if data.get("checkpoint_format") != CHECKPOINT_FORMAT:
        findings.append(Finding(
            "checkpoint-format", FATAL, str(manifest_path), None,
            f"checkpoint_format {data.get('checkpoint_format')!r} != "
            f"{CHECKPOINT_FORMAT}"))
    if data.get("run_key") != run_dir.name:
        findings.append(Finding(
            "run-key-mismatch", FATAL, str(manifest_path), None,
            f"manifest run_key {data.get('run_key')!r} does not match "
            f"directory name {run_dir.name!r}"))
    return data, findings


def _verify_entry(run_dir: Path, shard_key: str, entry,
                  deep: bool) -> list[Finding]:
    if not isinstance(entry, dict):
        return [Finding("manifest-entry-invalid", FATAL,
                        str(run_dir / MANIFEST_NAME), None,
                        f"shard {shard_key!r} entry is not an object")]
    name = entry.get("file", "")
    match = SHARD_FILE_PATTERN.fullmatch(name)
    try:
        shard_id = int(shard_key)
    except ValueError:
        shard_id = None
    if match is None or shard_id is None or int(match.group(1)) != shard_id:
        return [Finding("manifest-entry-invalid", FATAL,
                        str(run_dir / MANIFEST_NAME), shard_id,
                        f"shard {shard_key!r} entry points at {name!r}")]
    path = run_dir / name
    if not path.is_file():
        return [Finding("missing-shard", REPAIRABLE, str(path), shard_id,
                        "manifest entry has no checkpoint file "
                        "(re-execution will restore it)")]
    try:
        payload = path.read_bytes()
    except OSError as exc:
        return [Finding("missing-shard", REPAIRABLE, str(path), shard_id,
                        f"checkpoint unreadable: {exc}")]
    if len(payload) != entry.get("bytes"):
        return [Finding("truncated", REPAIRABLE, str(path), shard_id,
                        f"{len(payload)} bytes on disk, manifest recorded "
                        f"{entry.get('bytes')}")]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != entry.get("sha256"):
        return [Finding("checksum-mismatch", REPAIRABLE, str(path), shard_id,
                        f"sha256 {digest[:12]}… does not match manifest "
                        f"{str(entry.get('sha256'))[:12]}…")]
    if deep:
        try:
            outcome = _unpack_outcome(payload)
        except Exception as exc:  # noqa: BLE001 - classify, don't crash
            return [Finding("shard-unreadable", REPAIRABLE, str(path),
                            shard_id, f"checksum matches but payload does "
                            f"not parse: {exc}")]
        if outcome.shard_id != shard_id:
            return [Finding("shard-id-mismatch", REPAIRABLE, str(path),
                            shard_id, f"payload identifies itself as shard "
                            f"{outcome.shard_id}")]
    return []


def verify_run_dir(run_dir: Path | str, *, deep: bool = True) -> list[Finding]:
    """Audit one run directory; return findings (empty means clean).

    ``deep`` additionally reconstructs every checksum-clean shard payload
    (still pickle-free) to catch writer bugs a checksum cannot.  A run of
    another checkpoint format is one fatal finding: its payloads are not
    parsed, since no resume ever reads them (the format is part of the
    run key).
    """
    run_dir = Path(run_dir)
    manifest, findings = _load_manifest(run_dir)
    if manifest is None:
        return findings
    deep = deep and all(f.code != "checkpoint-format" for f in findings)
    shards = manifest["shards"]
    for shard_key in sorted(shards, key=lambda k: (len(k), k)):
        findings.extend(_verify_entry(run_dir, shard_key, shards[shard_key],
                                      deep))

    n_shards = manifest.get("n_shards")
    if (manifest.get("status") == "complete" and n_shards is not None
            and len(shards) != n_shards):
        findings.append(Finding(
            "shard-count-mismatch", FATAL, str(run_dir / MANIFEST_NAME),
            None, f"status is 'complete' but the manifest lists "
            f"{len(shards)} of {n_shards} shards"))

    recorded = {entry.get("file") for entry in shards.values()
                if isinstance(entry, dict)}
    for path in sorted(run_dir.iterdir()):
        if path.name == MANIFEST_NAME or path.name in recorded:
            continue
        if path.name == EVENTS_NAME:
            # The run-event log is a first-class run artifact (append-only
            # diagnostics, see repro.util.telemetry) — never foreign.
            continue
        match = SHARD_FILE_PATTERN.fullmatch(path.name)
        if match is not None:
            findings.append(Finding(
                "orphan-shard", REPAIRABLE, str(path), int(match.group(1)),
                "checkpoint file has no manifest entry (never trusted by "
                "--resume; safe to delete)"))
        elif path.name.endswith(".tmp"):
            findings.append(Finding(
                "stale-temp", REPAIRABLE, str(path), None,
                "leftover temporary from an interrupted atomic write"))
        else:
            findings.append(Finding(
                "foreign-file", FATAL, str(path), None,
                "file was not written by the checkpoint store"))
    return findings


def verify_tree(root: Path | str, *,
                deep: bool = True) -> dict[str, list[Finding]]:
    """Audit a checkpoint root (or a single run directory).

    Returns ``{run_dir: findings}`` for every run directory found — a
    directory is a run directory when it holds a ``MANIFEST.json`` or any
    ``shard-NNNN.npz``.  Empty dict means nothing auditable was found.
    """
    root = Path(root)
    if not root.is_dir():
        return {}
    if (root / MANIFEST_NAME).is_file() or any(
            SHARD_FILE_PATTERN.fullmatch(p.name)
            for p in root.iterdir() if p.is_file()):
        return {str(root): verify_run_dir(root, deep=deep)}
    results: dict[str, list[Finding]] = {}
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        if (child / MANIFEST_NAME).is_file() or any(
                SHARD_FILE_PATTERN.fullmatch(p.name)
                for p in child.iterdir() if p.is_file()):
            results[str(child)] = verify_run_dir(child, deep=deep)
    return results
