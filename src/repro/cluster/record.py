"""Record layout.

:class:`RecordDescriptor` describes where a record lives (global
address, data size) — shared by every protocol.

:class:`RecordMetadata` is the Baseline's *augmented record* (Fig. 1):
version, lock, incarnation, and one version per cache line to support
OCC read-atomicity checks.  HADES needs none of this — "there are no
versions" (Table I) — which is precisely the storage/overhead saving
the paper claims; node memory creates a record's metadata object only
when a protocol first touches it (see
:meth:`repro.cluster.memory.NodeMemory.metadata`).

The cluster keeps a descriptor for every record a protocol has asked
for, and node memory the metadata of every touched record, so both
classes are slotted: no per-instance ``__dict__``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Tuple

from repro.cluster.address import LINE_BYTES, lines_covering, node_of_address

#: Bytes of Fig. 1 metadata that precede the data: version (8) +
#: lock (8) + incarnation (8).
RECORD_HEADER_BYTES = 24
#: Per-cache-line version field size (VC_i in Fig. 1).
PER_LINE_VERSION_BYTES = 8


class RecordDescriptor(namedtuple("RecordDescriptor",
                                  "record_id address data_bytes")):
    """Location and shape of one record: an immutable
    ``(record_id, address, data_bytes)`` tuple."""

    __slots__ = ()

    def __new__(cls, record_id: int, address: int,
                data_bytes: int) -> RecordDescriptor:
        if data_bytes <= 0:
            raise ValueError(f"record data size must be positive: {data_bytes}")
        return super().__new__(cls, record_id, address, data_bytes)

    @property
    def home_node(self) -> int:
        return node_of_address(self.address)

    @property
    def lines(self) -> List[int]:
        """Cache lines covered by the record's data."""
        return lines_covering(self.address, self.data_bytes)

    @property
    def line_count(self) -> int:
        """``len(self.lines)``, from the first and last line alone."""
        return ((self.address + self.data_bytes - 1) // LINE_BYTES
                - self.address // LINE_BYTES + 1)

    def augmented_bytes(self) -> int:
        """Wire/storage size including Fig. 1 metadata (Baseline only)."""
        return (RECORD_HEADER_BYTES
                + PER_LINE_VERSION_BYTES * self.line_count
                + self.data_bytes)


class RecordMetadata:
    """Mutable Fig. 1 metadata for one record (Baseline / HADES-H local).

    ``lock_owner`` is None when unlocked, else the (node, txid) holder.
    ``line_versions`` implement the read-atomicity check: a writer bumps
    every line version; a reader observing mixed versions raced with a
    writer and must retry.
    """

    __slots__ = ("version", "lock_owner", "incarnation", "line_versions",
                 "applying", "pending_unlock")

    def __init__(self, line_count: int):
        if line_count < 1:
            raise ValueError(f"record must span at least one line: {line_count}")
        self.version = 0
        self.lock_owner: Optional[Tuple[int, int]] = None
        self.incarnation = 0
        self.line_versions: List[int] = [0] * line_count
        #: True between begin_write and complete_write: a remote commit
        #: write is being applied over simulated time.
        self.applying = False
        #: Owner whose unlock arrived mid-apply and must wait for
        #: complete_write (see unlock_after_apply).
        self.pending_unlock: Optional[Tuple[int, int]] = None

    @property
    def locked(self) -> bool:
        return self.lock_owner is not None

    def try_lock(self, owner: Tuple[int, int]) -> bool:
        """CAS-style lock acquisition; reentrant for the same owner."""
        if self.lock_owner is None or self.lock_owner == owner:
            self.lock_owner = owner
            return True
        return False

    def unlock(self, owner: Tuple[int, int]) -> None:
        if self.lock_owner != owner:
            raise RuntimeError(
                f"{owner} unlocking a record held by {self.lock_owner}")
        self.lock_owner = None

    def begin_write(self) -> None:
        """Writer marks lines inconsistent while the update is in flight.

        Models the window in which a reader can observe mixed per-line
        versions.  ``complete_write`` closes the window.
        """
        self.applying = True
        for index in range(len(self.line_versions)):
            self.line_versions[index] = self.version + 1 if index == 0 else self.line_versions[index]

    def complete_write(self) -> None:
        """Atomically-visible completion: bump record and line versions."""
        self.version += 1
        for index in range(len(self.line_versions)):
            self.line_versions[index] = self.version
        self.applying = False
        if self.pending_unlock is not None:
            if self.lock_owner == self.pending_unlock:
                self.lock_owner = None
            self.pending_unlock = None

    def unlock_after_apply(self, owner: Tuple[int, int]) -> None:
        """Owner-keyed unlock that cannot overtake an in-flight write.

        FaRM packs version and lock into one metadata word, so the
        commit write that installs the new version and the unlock that
        clears the lock bit can never be observed out of order.  The
        simulation splits them into an RdmaWriteRequest (applied over a
        torn window) and a BatchedUnlockRequest (applied instantly), so
        an unlock arriving mid-apply must wait for ``complete_write`` —
        otherwise a concurrent validation sees the *old* version with
        the lock already clear and admits a serializability violation.
        """
        if self.lock_owner != owner:
            raise RuntimeError(
                f"{owner} unlocking a record held by {self.lock_owner}")
        if self.applying:
            self.pending_unlock = owner
        else:
            self.lock_owner = None

    def lines_consistent(self) -> bool:
        """Read-atomicity check: all line versions equal (Section III)."""
        return len(set(self.line_versions)) == 1

    def free(self) -> None:
        """Record deallocation bumps the incarnation (Fig. 1)."""
        self.incarnation += 1
        self.version = 0
        self.lock_owner = None
        self.applying = False
        self.pending_unlock = None
        for index in range(len(self.line_versions)):
            self.line_versions[index] = 0
