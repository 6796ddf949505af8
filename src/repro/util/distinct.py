"""Exact distinct kernels for integer keys.

NumPy 2.x answers a plain ``np.unique`` on an integer array with a hash
table, which is several times slower than sorting the keys and keeping each
element that differs from its left neighbour; the row-wise ``axis=0`` form is
slower still.  The analysis phase deduplicates integer id columns (users,
sessions, nodes, volumes, shards, content-hash codes) on every report, so it
goes through the two kernels below instead.

Most of those columns are dense: a few thousand user ids or a few dozen
shards repeated over hundreds of thousands of rows.  When the key span
``max - min + 1`` is at most :data:`DENSE_SPAN_FACTOR` times the number of
keys, :func:`distinct` marks each key in a presence table of ``span`` bytes
and reads the marked offsets back in order, which is one O(n) pass instead
of a sort.

Exactness contract
------------------
* ``distinct(values)`` returns exactly ``np.unique(values)`` for integer and
  bool input of any width or sign: the input is flattened, the result is
  sorted ascending and keeps the input dtype.  Float and object input raise
  ``TypeError`` (NaN and object ordering are out of scope).
* The dense path is exact at every width and sign: the bound is checked
  with Python ints, and the offsets ``value - min`` are taken in a 64-bit
  type of the input's signedness (``int64`` or ``uint64``), where they
  cannot wrap as they would in the input's own narrow type.  Adding ``min``
  back in that type and casting to the input dtype restores every key.
* ``distinct_pairs(a, b)`` returns exactly
  ``np.unique(np.stack([a, b], axis=1), axis=0)``: the distinct ``(a, b)``
  rows in lexicographic order, in the dtype the stack promotes to (which
  must be integer or bool, else ``TypeError``).  Each pair is packed into
  one int64 key ``(a - min(a)) * span + (b - min(b))`` with
  ``span = max(b) - min(b) + 1`` when that key provably fits in int64 (the
  bound is checked with Python ints, so it cannot overflow); any wider range
  falls back to a ``np.lexsort``, so the result is exact at every range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DENSE_SPAN_FACTOR", "distinct", "distinct_pairs"]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: :func:`distinct` takes the presence-table path when the key span is at
#: most this many times the number of keys (the table then costs at most
#: ``4 n`` bytes, half of an int64 copy of the keys).
DENSE_SPAN_FACTOR = 4


def _require_integer(dtype: np.dtype) -> None:
    if dtype.kind not in "biu":
        raise TypeError(f"distinct kernels take integer or bool keys, "
                        f"not {dtype}")


def distinct(values) -> np.ndarray:
    """Sorted distinct elements of an integer or bool array (= ``np.unique``)."""
    values = np.asarray(values)
    _require_integer(values.dtype)
    if values.size > 1 and values.dtype.kind != "b":
        low, high = int(values.min()), int(values.max())
        if high - low < DENSE_SPAN_FACTOR * values.size:
            return _distinct_dense(values, low, high)
    ordered = np.sort(values, axis=None)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _distinct_dense(values: np.ndarray, low: int, high: int) -> np.ndarray:
    """Presence-table :func:`distinct` for keys within ``[low, high]``."""
    wide = np.uint64 if values.dtype.kind == "u" else np.int64
    offsets = values.astype(wide, copy=False).ravel()
    if low:
        offsets = offsets - wide(low)
    present = np.zeros(high - low + 1, dtype=bool)
    present[offsets.astype(np.intp, copy=False)] = True
    keys = np.flatnonzero(present).astype(wide, copy=False) + wide(low)
    return keys.astype(values.dtype, copy=False)


def distinct_pairs(a, b) -> np.ndarray:
    """Distinct ``(a, b)`` rows, sorted (= ``np.unique(..., axis=0)``)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("distinct_pairs takes two 1-D arrays of equal length")
    dtype = np.result_type(a, b)
    _require_integer(dtype)
    if a.size == 0:
        return np.empty((0, 2), dtype=dtype)
    a_min, a_max = int(a.min()), int(a.max())
    b_min, b_max = int(b.min()), int(b.max())
    span = b_max - b_min + 1
    packed_max = (a_max - a_min) * span + (b_max - b_min)
    if span > _INT64_MAX or packed_max > _INT64_MAX:
        return _distinct_pairs_lexsort(a.astype(dtype, copy=False),
                                       b.astype(dtype, copy=False))
    # Offsets are taken in a 64-bit type of the input's signedness, where
    # they are exact; the bound above makes them and the key fit in int64.
    wide = np.uint64 if dtype.kind == "u" else np.int64
    a_off = (a.astype(wide) - wide(a_min)).astype(np.int64, copy=False)
    b_off = (b.astype(wide) - wide(b_min)).astype(np.int64, copy=False)
    keys = distinct(a_off * span + b_off)
    out = np.empty((keys.size, 2), dtype=dtype)
    out[:, 0] = (keys // span).astype(wide) + wide(a_min)
    out[:, 1] = (keys % span).astype(wide) + wide(b_min)
    return out


def _distinct_pairs_lexsort(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    keep[1:] |= b[1:] != b[:-1]
    return np.stack([a[keep], b[keep]], axis=1)
