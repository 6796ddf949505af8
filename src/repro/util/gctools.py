"""Interpreter garbage-collector helpers for the bulk-allocation hot paths.

The generator and the replay engine allocate millions of small tuples,
dataclasses and lists and create no reference cycles: everything they build
is reclaimed by reference counting alone.  For such phases the cyclic
collector contributes nothing but unpredictable multi-millisecond pauses
(generation-0 collections trigger every ~700 net allocations), which were
the dominant source of run-to-run timing jitter.  :func:`cyclic_gc_paused`
switches the collector off for the duration of such a phase.

The phases must stay cycle-free.  The pause ends with :func:`gc.freeze`,
which moves *every* object the collector tracks into the permanent
generation — live or not.  Any cyclic garbage still uncollected at that
moment is pinned for the life of the process, out of sight of
:func:`gc.get_objects`: not only cycles the phase built, but also garbage
left before it started (a dropped ``U1Cluster``, say).  A replay shard's
object graph (API processes, notification bus, metadata shards, trace sink)
is therefore built without reference cycles, so it is freed the moment the
shard's ``run()`` returns; ``tests/backend/test_replay_memory.py`` enforces
that.
"""

from __future__ import annotations

import contextlib
import gc

__all__ = ["cyclic_gc_paused"]


@contextlib.contextmanager
def cyclic_gc_paused(*, freeze_survivors: bool = True):
    """Pause the cyclic garbage collector around a cycle-free bulk phase.

    The collector is re-enabled — never force-run — on exit, and left alone
    if the caller had already disabled it, so nesting and benchmark harness
    policies (pyperf-style ``gc.disable()``) compose.

    While the collector is off, every allocation accumulates in generation 0,
    so the first collection after re-enabling would scan everything the phase
    allocated and still holds live — a single ~20 ms pause right after a
    replay at the reference scale.  With ``freeze_survivors`` (the default)
    the survivors are moved to the permanent generation via :func:`gc.freeze`
    before re-enabling, which keeps them out of all future scans.  Frozen
    objects are still reclaimed by reference counting; objects trapped in
    reference cycles would leak, which is why the paused phases are
    cycle-free by contract (see the module docstring).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if freeze_survivors:
                gc.freeze()
            gc.enable()
