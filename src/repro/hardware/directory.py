"""Directory with WrTX_ID tags and the partial-locking primitive.

This models Modules 2 and the Locking Buffers of Fig. 7 (Section V-B):

* **WrTX_ID tags** record, per cache line, the in-progress local
  transaction that speculatively wrote it — used for eager L–L conflict
  detection and for collecting a committing transaction's write set.
* **Locking Buffers** hold a committing transaction's (read BF,
  write BF).  While installed, any read whose address hits a
  locked write BF, or any write whose address hits a locked read or
  write BF, is denied — this is how HADES serializes commits and how it
  guarantees multi-line read atomicity without version checks.

Multiple transactions may hold partial locks concurrently if their
write addresses miss each other's BFs.  The ``partial=False`` knob
degrades to a single whole-directory lock — the ablation called out in
DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hardware.bloom import (
    BloomFilter,
    any_key_might_contain,
    any_might_contain,
    any_pair_might_contain,
)

FilterLike = object  # BloomFilter | SplitWriteBloomFilter (duck-typed)


class LockingBuffer:
    """One installed partial lock: the owner's BFs.

    The filters are the live objects, not copies: a lock blocks what its
    owner's filters hold at each probe.
    """

    __slots__ = ("owner", "read_bf", "write_bf")

    def __init__(self, owner: Tuple[int, int], read_bf: FilterLike,
                 write_bf: FilterLike):
        #: (node_id, txid) of the locking transaction; remote committers
        #: install locks too, so the owner is globally identified.
        self.owner = owner
        self.read_bf = read_bf
        self.write_bf = write_bf


class Directory:
    """Per-node directory: WrTX_ID tags + Locking Buffers."""

    def __init__(self, locking_buffers: int = 8, partial: bool = True):
        if locking_buffers < 1:
            raise ValueError("need at least one locking buffer")
        self.max_locking_buffers = locking_buffers
        self.partial = partial
        self._buffers: List[LockingBuffer] = []
        # The buffers as the Bloom kernels take them, kept in step with
        # ``_buffers``: owner -> position, the write filters, and the
        # (read, write) pairs flattened.
        self._slots: Dict[Tuple[int, int], int] = {}
        self._write_bfs: tuple = ()
        self._pair_bfs: tuple = ()
        self._writer_tags: Dict[int, int] = {}
        self._lines_by_tx: Dict[int, Set[int]] = {}
        self.lock_attempts = 0
        self.lock_failures = 0

    # -- WrTX_ID tags (Module 2) --------------------------------------

    def writer_of(self, line: int) -> Optional[int]:
        """Local txid tagged as writer of ``line``, if any."""
        return self._writer_tags.get(line)

    def tag_write(self, line: int, txid: int) -> None:
        previous = self._writer_tags.get(line)
        if previous is not None and previous != txid:
            raise RuntimeError(
                f"line {line:#x} already tagged by tx {previous}; "
                "the protocol must resolve the conflict first"
            )
        self._writer_tags[line] = txid
        self._lines_by_tx.setdefault(txid, set()).add(line)

    def lines_written_by(self, txid: int) -> Set[int]:
        """The Fig. 8 operation: all lines tagged with ``txid``."""
        return set(self._lines_by_tx.get(txid, ()))

    def clear_writer_tags(self, txid: int) -> int:
        """Commit Step 4 / squash: drop all of ``txid``'s tags."""
        lines = self._lines_by_tx.pop(txid, set())
        for line in lines:
            if self._writer_tags.get(line) == txid:
                del self._writer_tags[line]
        return len(lines)

    # -- Locking Buffers (Fig. 7) -------------------------------------

    def holds_lock(self, owner: Tuple[int, int]) -> bool:
        return owner in self._slots

    @property
    def active_locks(self) -> int:
        return len(self._buffers)

    def try_lock(
        self,
        owner: Tuple[int, int],
        read_bf: FilterLike,
        write_bf: FilterLike,
        write_lines: Sequence[int],
    ) -> bool:
        """Attempt to install a partial lock for ``owner``.

        ``write_lines`` is the committing transaction's exact list of
        written line addresses (from the WrTX_ID tags locally, or from
        the Intend-to-commit message remotely).  They are checked against
        every already-installed buffer; any hit means the two commits
        conflict and the newcomer must be squashed (Section V-B).
        """
        self.lock_attempts += 1
        if self.holds_lock(owner):
            raise RuntimeError(f"{owner} already holds a directory lock")
        if not self.partial and self._buffers:
            self.lock_failures += 1
            return False
        if len(self._buffers) >= self.max_locking_buffers:
            self.lock_failures += 1
            return False
        # Each installed buffer blocks a write that hits its read or its
        # write BF (buffer by buffer, line by line).
        if any_pair_might_contain(self._pair_bfs, write_lines):
            self.lock_failures += 1
            return False
        self._slots[owner] = len(self._buffers)
        self._buffers.append(LockingBuffer(owner, read_bf, write_bf))
        self._write_bfs += (write_bf,)
        self._pair_bfs += (read_bf, write_bf)
        return True

    def unlock(self, owner: Tuple[int, int]) -> None:
        """Remove ``owner``'s Locking Buffer (commit Step 6 / squash)."""
        slot = self._slots.pop(owner, None)
        if slot is None:
            return
        buffers = self._buffers
        del buffers[slot]
        for later in range(slot, len(buffers)):
            self._slots[buffers[later].owner] = later
        self._write_bfs = self._write_bfs[:slot] + self._write_bfs[slot + 1:]
        self._pair_bfs = (self._pair_bfs[:2 * slot]
                          + self._pair_bfs[2 * slot + 2:])

    def _locked_by_other(self, requester: Optional[Tuple[int, int]]) -> bool:
        """Whole-directory locking: any buffer not ``requester``'s blocks."""
        return len(self._buffers) > (1 if requester in self._slots else 0)

    def _others(self, filters: tuple, width: int,
                requester: Tuple[int, int]) -> tuple:
        """``filters`` less the ``width`` of them that belong to
        ``requester``'s lock."""
        start = width * self._slots[requester]
        return filters[:start] + filters[start + width:]

    def read_blocked(self, line: int, requester: Optional[Tuple[int, int]] = None) -> bool:
        """Would a read of ``line`` be denied right now?

        Yes if another transaction's locked write BF might contain it.
        """
        if not self._buffers:
            return False
        if not self.partial:
            return self._locked_by_other(requester)
        filters = self._write_bfs
        if requester in self._slots:  # its own lock never blocks it
            filters = self._others(filters, 1, requester)
        return any_might_contain(filters, line)

    def write_blocked(self, line: int, requester: Optional[Tuple[int, int]] = None) -> bool:
        """Would a write of ``line`` be denied right now?

        Yes if another transaction's locked read or write BF might
        contain it (read BF first, buffer by buffer).
        """
        if not self._buffers:
            return False
        if not self.partial:
            return self._locked_by_other(requester)
        filters = self._pair_bfs
        if requester in self._slots:
            filters = self._others(filters, 2, requester)
        return any_might_contain(filters, line)

    def any_read_blocked(self, lines: Sequence[int],
                         requester: Optional[Tuple[int, int]] = None) -> bool:
        """Would a read of any of ``lines`` be denied right now?

        The decision and Bloom read accesses of one :meth:`read_blocked`
        per line, in order, up to the first blocked line — the check
        every spin loop repeats — made in one kernel call over the line
        list (:func:`~repro.hardware.bloom.any_key_might_contain`).
        """
        if not self._buffers:
            return False
        if not self.partial:
            return bool(lines) and self._locked_by_other(requester)
        filters = self._write_bfs
        if requester in self._slots:
            filters = self._others(filters, 1, requester)
        return any_key_might_contain(filters, lines)

    def any_write_blocked(self, lines: Sequence[int],
                          requester: Optional[Tuple[int, int]] = None) -> bool:
        """Would a write of any of ``lines`` be denied right now?

        The decision and Bloom read accesses of one :meth:`write_blocked`
        per line, in order, up to the first blocked line, made in one
        kernel call over the line list.
        """
        if not self._buffers:
            return False
        if not self.partial:
            return bool(lines) and self._locked_by_other(requester)
        filters = self._pair_bfs
        if requester in self._slots:
            filters = self._others(filters, 2, requester)
        return any_key_might_contain(filters, lines)

    def lock_owners(self) -> List[Tuple[int, int]]:
        return [buffer.owner for buffer in self._buffers]

    def writer_tags(self) -> Dict[int, int]:
        """line -> txid for every live WrTX_ID tag (leak checks)."""
        return dict(self._writer_tags)

    def wipe(self) -> int:
        """Node crash: directory SRAM is volatile — every Locking Buffer
        and WrTX_ID tag is lost.  Returns the number of entries dropped."""
        dropped = len(self._buffers) + len(self._writer_tags)
        self._buffers.clear()
        self._slots.clear()
        self._write_bfs = self._pair_bfs = ()
        self._writer_tags.clear()
        self._lines_by_tx.clear()
        return dropped


def snapshot_filters(
    read_lines: Iterable[int],
    write_lines: Iterable[int],
    read_bits: int = 1024,
    write_bits: int = 1024,
    hashes: int = 2,
) -> Tuple[BloomFilter, BloomFilter]:
    """Build a (read, write) BF pair from explicit address lists.

    This is what HADES-H's NIC does at commit time: the software passes
    the local record addresses and the NIC 'builds the equivalent of a
    LocalReadBF and LocalWriteBF' (Section V-D).
    """
    read_bf = BloomFilter(read_bits, hashes)
    write_bf = BloomFilter(write_bits, hashes)
    read_bf.insert_all(read_lines)
    write_bf.insert_all(write_lines)
    return read_bf, write_bf
