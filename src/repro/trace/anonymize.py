"""Trace anonymisation, mirroring Canonical's release procedure.

The released U1 dataset anonymises sensitive information (user ids, file
names, content hashes) while keeping the structural properties the analyses
rely on: identical users keep identical anonymised ids, identical contents
keep identical anonymised hashes (so deduplication analyses still work), and
file extensions are preserved (so the file-type taxonomy of Section 5.3 still
works).  :class:`Anonymizer` reproduces exactly that mapping.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

import numpy as np

from repro.trace.dataset import ColumnBlock, TraceDataset
from repro.util.distinct import distinct

__all__ = ["Anonymizer"]


@dataclass
class Anonymizer:
    """Deterministic, keyed anonymiser for trace datasets.

    Parameters
    ----------
    secret:
        Keying material.  Two anonymisers with the same secret produce the
        same mapping; with different secrets the mappings are unlinkable.
    preserve_extensions:
        Keep file extensions in the clear (the released dataset does, since
        the file-type analyses need them).
    """

    secret: bytes = b"repro-u1-anonymizer"
    preserve_extensions: bool = True
    _user_map: dict[int, int] = field(default_factory=dict, repr=False)
    _session_map: dict[int, int] = field(default_factory=dict, repr=False)
    _node_map: dict[int, int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ keys
    def _pseudonym(self, namespace: str, value: int | str, width: int = 12) -> int:
        digest = hmac.new(self.secret, f"{namespace}:{value}".encode(), hashlib.sha256)
        return int.from_bytes(digest.digest()[:width], "big")

    def anonymize_user_id(self, user_id: int) -> int:
        """Stable pseudonym for a user id."""
        if user_id not in self._user_map:
            self._user_map[user_id] = self._pseudonym("user", user_id, width=6)
        return self._user_map[user_id]

    def anonymize_session_id(self, session_id: int) -> int:
        """Stable pseudonym for a session id."""
        if session_id not in self._session_map:
            self._session_map[session_id] = self._pseudonym("session", session_id, width=6)
        return self._session_map[session_id]

    def anonymize_node_id(self, node_id: int) -> int:
        """Stable pseudonym for a node id (0 stays 0: "no node")."""
        if node_id == 0:
            return 0
        if node_id not in self._node_map:
            self._node_map[node_id] = self._pseudonym("node", node_id, width=6)
        return self._node_map[node_id]

    def anonymize_hash(self, content_hash: str) -> str:
        """Keyed re-hash of a content hash (empty stays empty)."""
        if not content_hash:
            return ""
        digest = hmac.new(self.secret, f"hash:{content_hash}".encode(), hashlib.sha256)
        return digest.hexdigest()[:40]

    # --------------------------------------------------------------- dataset
    def anonymize(self, dataset: TraceDataset) -> TraceDataset:
        """Anonymised copy of a whole dataset.

        Works on the columns: each id column is mapped through its pseudonym
        once per distinct id, and the content hashes (and extensions, when
        stripped) once per category of their factorisation, never per row.
        """
        anonymous = TraceDataset()
        for source, target in zip(
                (dataset._storage, dataset._rpc, dataset._sessions),
                (anonymous._storage, anonymous._rpc, anonymous._sessions)):
            block = ColumnBlock.from_stream(source)
            cols, codes = block.cols, block.codes
            cols["user_id"] = _map_ids(cols["user_id"], self.anonymize_user_id)
            cols["session_id"] = _map_ids(cols["session_id"],
                                          self.anonymize_session_id)
            if "node_id" in cols:
                cols["node_id"] = _map_ids(cols["node_id"], self.anonymize_node_id)
            if "content_hash" in codes:
                hash_codes, hashes = codes["content_hash"]
                codes["content_hash"] = (
                    hash_codes, [self.anonymize_hash(h) for h in hashes])
            if "extension" in codes and not self.preserve_extensions:
                codes["extension"] = (np.zeros(block.n, dtype=np.int32),
                                      [""] if block.n else [])
            target.append_block(block)
        return anonymous


def _map_ids(ids: np.ndarray, pseudonym) -> np.ndarray:
    """``pseudonym`` of every id, computed once per distinct id."""
    values = distinct(ids)
    mapped = np.fromiter(map(pseudonym, values.tolist()), dtype=np.int64,
                         count=len(values))
    return mapped[np.searchsorted(values, ids)]
