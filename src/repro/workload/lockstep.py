"""File tables of a materialization batch, advanced in lockstep.

:class:`Lockstep` holds the client-side file tables of every member of one
:class:`~repro.workload.generator._BatchMaterializer` batch and resolves the
operands that read them (which file a download, update, unlink or move
targets; which pending upload goes next), one step at a time across the
members.  Everything it needs from a member's stream (lanes, new-file
contents, volume picks) is resolved before the steps, as batch columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain

import numpy as np

from repro.util.units import HOUR
from repro.workload.events import ranges

__all__ = ["Lockstep"]


#: Unsynced-file counts up to which a sync download picks among the
#: candidates in the iteration order of the member's ``unsynced`` set;
#: above it, in file-table row order.  The two orders hold the same files
#: but rank them differently, so the pick differs between them (at seed
#: 2014, in 578 of 2,247 set-order picks on perfbench write-heavy and 157 of
#: 530 on faulted-sweeps): the set order, and with it the set's add/discard
#: history, is part of the realisation.
UNSYNCED_SET_ORDER = 96

#: Update-targeting editing burst (see ``Lockstep._upload``): extra
#: weight on files written within the window, so consecutive saves of the
#: same document chain into WAW dependencies the way Fig. 3a observes
#: ("WAW is the most common dependency", 80 % of WAW gaps under an hour).
UPDATE_BURST_WINDOW = 15 * 60.0
UPDATE_BURST_BONUS = 8.0

#: The lockstep's actions, one handler each (see :class:`Lockstep`): the
#: stateful operations, split up front by their roll lane.
(A_SYNC, A_REREAD, A_FETCH, A_UPDATE, A_UPLOAD, A_MAKE_DIRECTORY,
 A_MAKE_FILE, A_UNLINK_RECENT, A_UNLINK, A_MOVE,
 A_DELETE_VOLUME) = range(11)
N_ACTIONS = 11

#: Bytes to MB, for the update base weight ``0.4 + min(size / 1 MB, 1.5)``.
PER_MB = 1.0 / (1024 * 1024)

#: The content or extension key of the empty string.
NO_STRING = -1

#: :class:`array.array` type codes of float, integer and bool columns.
_TYPECODES = {"f": ("d", np.float64), "i": ("q", np.int64),
              "b": ("b", np.bool_)}


def _flat(values: np.ndarray) -> array:
    """``values`` as a typed :class:`array.array`: C storage, one memory
    copy from the NumPy column, and list-speed scalar access."""
    code, dtype = _TYPECODES[values.dtype.kind]
    out = array(code)
    out.frombytes(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return out


class Lockstep:
    """The file tables of a batch's members, advanced in lockstep.

    Storage is a CSR layout of flat columns: member ``m``'s live files are
    rows ``fbase[m]:fbase[m] + n[m]`` of :attr:`created`,
    :attr:`last_write`, :attr:`last_read`, :attr:`reads`, :attr:`popularity`
    (the re-read weight ``0.15 + min(reads, 10)``, kept current on every
    read), :attr:`upd_base` (the update base weight ``0.4 + min(size / 1 MB,
    1.5)``), :attr:`local` (the node's member-local id), :attr:`size` and
    :attr:`content` (its content key).  A new file is appended and a
    removed one takes the last row's place.  Node-indexed columns
    (``nbase[m] + local id``) map a member's node to its row, its
    pending-upload flag and the operand slot that created it; a node's
    volume and extension never change, so they are read from that slot
    once the steps are done.

    :meth:`run` takes the batch's stateful operations grouped by step and
    action: step ``k`` holds the ``k``-th stateful operation of every member
    with more than ``k``, so a group's operations belong to distinct members
    and resolve independently, one handler call per group.  Every weighted
    pick is one C-level running sum (:func:`itertools.accumulate`, the very
    floats of a left-to-right sum) and a bisection at ``u`` times its last
    entry, over the member's slice of a kept-current weight column (a
    re-read), over its unsynced candidates (a sync), or over its base
    weights with the files written within the hour raised (an update: a
    NumPy filter over a view of the member's rows finds them).  The rest of
    an operation is O(1) bookkeeping on the flat columns (append, stamp,
    swap-remove, FIFO), which are :class:`array.array` storage read and
    written an item at a time.  Groups are not NumPy passes: most hold one
    or two operations (at seed 2014, 56% of them on perfbench write-heavy
    and 80% or more on the other three workloads), and there a NumPy pass
    over the group cost 25-70 us, several times the scalar work it
    replaced.

    Three structures stay per member in Python sets and queues, each with
    the add/discard sequence of a one-event-at-a-time walk, because their
    order is part of the realisation:

    * the ``unsynced`` sets (files with ``last_read < last_write``): a sync
      pick over at most :data:`UNSYNCED_SET_ORDER` candidates walks the
      set's iteration order;
    * the pending-upload FIFO, a queue of local ids with lazy removal;
    * the file sets of UDF volumes, whose order is the order in which
      ``DeleteVolume`` removes the files, and so decides the table's row
      order after it.  Only members that delete a volume keep them.
    """

    __slots__ = ("fbase", "nbase", "qbase", "id_base", "n", "next_node",
                 "n_pending", "head", "tail", "queue", "created", "last_write",
                 "last_read", "reads", "popularity", "upd_base",
                 "create_times", "write_times", "read_times", "local", "size",
                 "content", "row_of", "pending", "node_slot", "unsynced",
                 "udf_files", "slot_volume", "out_local", "out_size",
                 "out_content", "update", "keep", "member", "event", "time",
                 "slot", "pick", "pick2", "new_size", "new_content",
                 "new_upd_base", "mint", "jitter", "udf", "deleted")

    def __init__(self, capacity: np.ndarray, n_files: np.ndarray,
                 id_base: np.ndarray, queue: np.ndarray, n_events: int,
                 existing: tuple[float, np.ndarray, np.ndarray, np.ndarray],
                 slot_volume: np.ndarray):
        """``capacity`` bounds each member's live files (its slot count, as
        every slot creates at most one node) and ``queue`` its ``Make`` file
        operations; ``n_events`` sizes the per-event outputs.  The first
        ``n_files`` rows of each member hold the files uploaded before the
        window: ``existing`` is their creation time and, per file, the
        operand slot that minted it, its size and its content key.
        ``slot_volume`` is the volume each operand slot picks."""
        fbase = np.cumsum(capacity) - capacity
        nodes = capacity + 1
        nbase = np.cumsum(nodes) - nodes
        self.fbase, self.nbase = fbase.tolist(), nbase.tolist()
        self.qbase = (np.cumsum(queue) - queue).tolist()
        self.id_base = id_base.tolist()
        self.n = n_files.tolist()
        self.next_node = n_files.tolist()
        self.n_pending = [0] * len(capacity)
        self.head = [0] * len(capacity)
        self.tail = [0] * len(capacity)
        self.queue = _flat(np.zeros(int(queue.sum()), dtype=np.int64))
        created, slots, sizes, contents = existing
        rows = ranges(fbase, n_files)
        local = rows - np.repeat(fbase, n_files) + 1
        table = np.zeros((6, int(capacity.sum())))
        table[:2, rows] = created
        table[2, rows] = -1.0
        table[4, rows] = 0.15 + 0.0
        table[5, rows] = np.minimum(sizes * PER_MB, 1.5) + 0.4
        (self.created, self.last_write, self.last_read, self.reads,
         self.popularity, self.upd_base) = map(_flat, table)
        # Array views of the same storage, for the scans over a member's
        # rows.
        self.create_times, self.write_times, self.read_times = (
            np.frombuffer(column) for column in (
                self.created, self.last_write, self.last_read))
        ints = np.zeros((3, table.shape[1]), dtype=np.int64)
        ints[:, rows] = local, sizes, contents
        self.local, self.size, self.content = map(_flat, ints)
        node = np.full((2, int(nodes.sum())), -1, dtype=np.int64)
        node[:, np.repeat(nbase, n_files) + local] = rows, slots
        self.row_of, self.node_slot = map(_flat, node)
        self.pending = _flat(np.zeros(node.shape[1], dtype=bool))
        self.unsynced = [set(range(base + 1, base + count + 1)) for base, count
                         in zip(self.id_base, self.n)]
        self.udf_files: dict[int, dict[int, set[int]]] = {}
        self.slot_volume = slot_volume
        self.out_local = _flat(np.zeros(n_events, dtype=np.int64))
        self.out_size = _flat(np.zeros(n_events, dtype=np.int64))
        self.out_content = _flat(np.full(n_events, NO_STRING, dtype=np.int64))
        self.update = _flat(np.zeros(n_events, dtype=bool))
        self.keep = _flat(np.ones(n_events, dtype=bool))

    def load(self, member: np.ndarray, event: np.ndarray, time: np.ndarray,
             slot: np.ndarray, pick: np.ndarray, pick2: np.ndarray,
             size: np.ndarray, content: np.ndarray, mint: np.ndarray,
             jitter: np.ndarray, udf: np.ndarray, deleted: np.ndarray) -> None:
        """The per-operation columns, in step order: each operation's
        member, event, time, slot and pick lanes, the file it would create
        (``size``, ``content``) or the content it would mint on an update
        (``mint``, ``jitter``), the UDF volume a created file joins (-1:
        none tracked) and the volume it deletes."""
        (self.member, self.event, self.slot, self.time, self.pick,
         self.pick2, self.new_size, self.new_content, self.mint, self.jitter,
         self.udf, self.deleted) = map(_flat, (
             member, event, slot, time, pick, pick2, size, content, mint,
             jitter, udf, deleted))
        self.new_upd_base = _flat(np.minimum(size * PER_MB, 1.5) + 0.4)

    # ------------------------------------------------------------- steps
    def run(self, groups: list[tuple[int, int, int]]) -> None:
        """Resolve every ``(action, lo, hi)`` group in order: the operations
        ``lo:hi`` of the step-ordered columns."""
        handlers = (self._sync, self._reread, self._fetch, self._update,
                    self._upload, self._make_directory, self._make_file,
                    self._unlink_recent, self._unlink, self._move,
                    self._delete_volume)
        for action, lo, hi in groups:
            handlers[action](range(lo, hi))

    @staticmethod
    def _weighted(weights, u: float) -> int:
        """The first position whose running weight exceeds ``u`` times the
        running total."""
        running = list(accumulate(weights))
        index = bisect_right(running, u * running[-1])
        return index if index < len(running) else len(running) - 1

    def _new_file(self, i: int, read: bool) -> int:
        """Append the file operation ``i`` creates; its row.  A fetched
        download (``read``) reads it as it is created."""
        member = self.member[i]
        n = self.n[member]
        self.n[member] = n + 1
        local = self.next_node[member] = self.next_node[member] + 1
        row = self.fbase[member] + n
        now = self.time[i]
        self.created[row] = now
        self.last_write[row] = now
        self.last_read[row] = now if read else -1.0
        self.reads[row] = 1.0 if read else 0.0
        self.popularity[row] = 0.15 + (1.0 if read else 0.0)
        self.upd_base[row] = self.new_upd_base[i]
        self.local[row] = local
        self.size[row] = self.new_size[i]
        self.content[row] = self.new_content[i]
        node = self.nbase[member] + local
        self.row_of[node] = row
        self.node_slot[node] = self.slot[i]
        node_id = self.id_base[member] + local
        files = self.unsynced[member]
        files.add(node_id)
        if read:
            files.discard(node_id)
        volume = self.udf[i]
        if volume >= 0:
            self.udf_files[member].setdefault(volume, set()).add(node_id)
        return row

    def _drop(self, member: int, row: int) -> int:
        """Remove the file at ``row``; its local id."""
        local = self.local[row]
        last = self.fbase[member] + self.n[member] - 1
        self.n[member] -= 1
        if row != last:
            for column in (self.created, self.last_write, self.last_read,
                           self.reads, self.popularity, self.upd_base,
                           self.size, self.content):
                column[row] = column[last]
            moved = self.local[row] = self.local[last]
            self.row_of[self.nbase[member] + moved] = row
        node = self.nbase[member] + local
        self.row_of[node] = -1
        if self.pending[node]:
            self.pending[node] = False
            self.n_pending[member] -= 1
        node_id = self.id_base[member] + local
        self.unsynced[member].discard(node_id)
        if self.udf_files:
            files = self.udf_files.get(member, {}).get(
                int(self.slot_volume[self.node_slot[node]]))
            if files is not None:
                files.discard(node_id)
        return local

    def _transfer(self, i: int, row: int) -> None:
        """The event row of a transfer: the file's node, size and content."""
        event = self.event[i]
        self.out_local[event] = self.local[row]
        self.out_size[event] = self.size[row]
        self.out_content[event] = self.content[row]

    def _read(self, i: int, row: int) -> None:
        """Download the file at ``row``."""
        now = self.time[i]
        self.last_read[row] = now
        reads = self.reads[row] = self.reads[row] + 1.0
        self.popularity[row] = 0.15 + (reads if reads < 10.0 else 10.0)
        member = self.member[i]
        node_id = self.id_base[member] + self.local[row]
        if now < self.last_write[row]:
            self.unsynced[member].add(node_id)
        else:
            self.unsynced[member].discard(node_id)
        self._transfer(i, row)

    def _write(self, i: int, row: int) -> None:
        """Upload the file at ``row``."""
        now = self.time[i]
        self.last_write[row] = now
        member = self.member[i]
        node_id = self.id_base[member] + self.local[row]
        if self.last_read[row] < now:
            self.unsynced[member].add(node_id)
        else:
            self.unsynced[member].discard(node_id)
        self._transfer(i, row)

    # ----------------------------------------------------------- handlers
    def _sync(self, ops) -> None:
        """Download a file pending synchronisation, the recently written
        ones 4:1; with none pending, fall back to a re-read.

        Up to :data:`UNSYNCED_SET_ORDER` candidates come in the iteration
        order of the member's unsynced set; beyond it, in row order.
        """
        last_write, last_read = self.last_write, self.last_read
        for i in ops:
            member = self.member[i]
            files = self.unsynced[member]
            if not files:
                self._reread((i,))
                continue
            if len(files) <= UNSYNCED_SET_ORDER:
                offset = self.nbase[member] - self.id_base[member]
                row_of = self.row_of
                rows = [row_of[node + offset] for node in files]
            else:
                first = self.fbase[member]
                stop = first + self.n[member]
                rows = (first + np.flatnonzero(
                    self.read_times[first:stop] < self.write_times[first:stop])
                        ).tolist()
            now = self.time[i]
            weights = [4.0 if now - last_write[row] < HOUR else 1.0
                       for row in rows]
            self._read(i, rows[self._weighted(weights, self.pick[i])])

    def _reread(self, ops) -> None:
        """Re-download a known file, weighted by read popularity (RAR, Fig.
        3b): already-read files dominate, never-read ones keep a small base
        weight.  A member without files fetches new content instead."""
        popularity = self.popularity
        for i in ops:
            member = self.member[i]
            n = self.n[member]
            if not n:
                self._fetch((i,))
                continue
            first = self.fbase[member]
            self._read(i, first + self._weighted(
                popularity[first:first + n], self.pick2[i]))

    def _fetch(self, ops) -> None:
        """New remote content (another device or a share) appears and is
        synced: a new file, read as it is created."""
        for i in ops:
            self._transfer(i, self._new_file(i, True))

    def _update(self, ops) -> None:
        """An update attempt: rewrite a file chosen by size, recency and
        editing burst (the ``_UPDATE_BURST_*`` term chains a document's
        saves into the WAW dependencies of Fig. 3a).  A pending target is
        uploaded from the FIFO instead; with no files, a plain upload."""
        upd_base, last_write = self.upd_base, self.last_write
        for i in ops:
            member = self.member[i]
            n = self.n[member]
            if not n:
                self._upload((i,))
                continue
            first = self.fbase[member]
            now = self.time[i]
            weights = upd_base[first:first + n]
            # Only a file written within the hour weighs more than its base;
            # the array filter keeps a second's margin over the exact test.
            for row in np.flatnonzero(self.write_times[first:first + n]
                                      > now - HOUR - 1.0).tolist():
                gap = now - last_write[first + row]
                if gap < HOUR:
                    weight = weights[row] + 2.0
                    if gap < UPDATE_BURST_WINDOW:
                        weight += UPDATE_BURST_BONUS
                    weights[row] = weight
            row = first + self._weighted(weights, self.pick[i])
            if self.pending[self.nbase[member] + self.local[row]]:
                self._upload((i,))
                continue
            # No delta updates in U1: the whole file is re-uploaded as new
            # content of about the same size.
            size = int(self.size[row] * self.jitter[i])
            if size < 1:
                size = 1
            self.size[row] = size
            self.content[row] = self.mint[i]
            boost = size * PER_MB
            upd_base[row] = 0.4 + (boost if boost < 1.5 else 1.5)
            self.update[self.event[i]] = True
            self._write(i, row)

    def _upload(self, ops) -> None:
        """Upload the oldest pending file (skipping removed entries), or a
        new one."""
        for i in ops:
            member = self.member[i]
            if not self.n_pending[member]:
                self._transfer(i, self._new_file(i, False))
                continue
            base, nbase = self.qbase[member], self.nbase[member]
            while True:
                local = self.queue[base + self.head[member]]
                self.head[member] += 1
                if self.pending[nbase + local]:
                    break
            self.pending[nbase + local] = False
            self.n_pending[member] -= 1
            self._write(i, self.row_of[nbase + local])

    def _make_directory(self, ops) -> None:
        for i in ops:
            member = self.member[i]
            local = self.next_node[member] = self.next_node[member] + 1
            self.node_slot[self.nbase[member] + local] = self.slot[i]
            self.out_local[self.event[i]] = local

    def _make_file(self, ops) -> None:
        """Create a file's metadata entry; its content upload is pending."""
        for i in ops:
            member = self.member[i]
            local = self.local[self._new_file(i, False)]
            self.queue[self.qbase[member] + self.tail[member]] = local
            self.tail[member] += 1
            self.pending[self.nbase[member] + local] = True
            self.n_pending[member] += 1
            self.out_local[self.event[i]] = local

    def _unlink_recent(self, ops) -> None:
        """Delete a uniformly chosen file created in the last 8 h (a
        short-lived file), or any file if none is that recent."""
        created = self.created
        for i in ops:
            member = self.member[i]
            first = self.fbase[member]
            now = self.time[i]
            # The array filter keeps a second's margin over the exact test.
            recent = [row for row in (first + np.flatnonzero(
                self.create_times[first:first + self.n[member]]
                > now - 8 * HOUR - 1.0)).tolist()
                      if now - created[row] < 8 * HOUR]
            if not recent:
                self._unlink((i,))
                continue
            nth = int(self.pick[i] * len(recent))
            self.out_local[self.event[i]] = self._drop(
                member, recent[nth if nth < len(recent) else -1])

    def _unlink(self, ops) -> None:
        """Delete a uniformly chosen file."""
        for i in ops:
            member = self.member[i]
            n = self.n[member]
            if not n:
                self.keep[self.event[i]] = False
                continue
            nth = int(self.pick2[i] * n)
            row = self.fbase[member] + (nth if nth < n else n - 1)
            self.out_local[self.event[i]] = self._drop(member, row)

    def _move(self, ops) -> None:
        """Move (rename) a uniformly chosen file."""
        for i in ops:
            member = self.member[i]
            n = self.n[member]
            if not n:
                self.keep[self.event[i]] = False
                continue
            nth = int(self.pick[i] * n)
            self.out_local[self.event[i]] = self.local[
                self.fbase[member] + (nth if nth < n else n - 1)]

    def _delete_volume(self, ops) -> None:
        """Remove a deleted UDF volume's files, in its set's order."""
        for i in ops:
            member = self.member[i]
            offset = self.nbase[member] - self.id_base[member]
            for node_id in self.udf_files[member].pop(self.deleted[i], ()):
                self._drop(member, self.row_of[node_id + offset])
