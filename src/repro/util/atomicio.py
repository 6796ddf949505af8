"""Atomic artifact writes: no reader ever sees a truncated file.

Every JSON report and checkpoint this project writes is the kind of
artifact a crashed or interrupted run must not corrupt: the ``--json``
sweep outputs and ``--metrics`` snapshots feed downstream analysis, and
the shard checkpoints feed ``--resume``.  All of them are written here
the same way: to a temporary file *in the destination directory* (so the
rename never crosses a filesystem boundary) followed by :func:`os.replace`,
which POSIX guarantees to be atomic.  An interrupt therefore leaves either
the old complete file or the new complete file — never a prefix.

Atomic is not the same as *durable*: ``os.replace`` orders the rename
against other renames, but a power loss can still lose the file *contents*
(data not yet flushed) or the rename itself (directory entry not yet
flushed).  Checkpoints and run manifests are exactly the artifacts that
must survive a power loss — they are what ``--resume`` trusts — so the
write path also ``fsync``\\ s the temporary file before the rename and the
parent directory after it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_text"]


def atomic_write_bytes(path: Path | str, payload: bytes) -> Path:
    """Atomically replace ``path`` with ``payload``.

    Raises :class:`OSError` when the destination is unwritable; the
    temporary file is cleaned up on any failure.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            # Contents must be on stable storage *before* the rename makes
            # them reachable, or a power loss can leave a complete-looking
            # name pointing at lost data.
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (the rename) to stable storage.

    Best-effort: some filesystems refuse to fsync a directory handle; the
    write stays atomic either way, only power-loss durability of the rename
    is affected.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Atomically replace ``path`` with UTF-8 encoded ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path | str, payload) -> Path:
    """Atomically replace ``path`` with ``payload`` serialised as JSON."""
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
