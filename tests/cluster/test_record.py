"""Tests for record descriptors and the Fig. 1 augmented metadata."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.address import LINE_BYTES, make_address
from repro.cluster.record import (
    PER_LINE_VERSION_BYTES,
    RECORD_HEADER_BYTES,
    RecordDescriptor,
    RecordMetadata,
)


class TestRecordDescriptor:
    def test_basic_properties(self):
        descriptor = RecordDescriptor(1, make_address(2, 64), 128)
        assert descriptor.home_node == 2
        assert descriptor.line_count == 2
        assert len(descriptor.lines) == 2

    def test_sub_line_record_is_one_line(self):
        descriptor = RecordDescriptor(1, make_address(0, 64), 16)
        assert descriptor.line_count == 1

    @given(st.integers(0, 1 << 44), st.integers(1, 5 * LINE_BYTES),
           st.booleans(), st.booleans())
    def test_line_count_counts_the_lines(self, address, size,
                                         aligned_address, aligned_size):
        if aligned_address:
            address -= address % LINE_BYTES
        if aligned_size:
            size = -(-size // LINE_BYTES) * LINE_BYTES
        descriptor = RecordDescriptor(1, address, size)
        assert descriptor.line_count == len(descriptor.lines)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            RecordDescriptor(1, 0, 0)

    def test_augmented_bytes_matches_fig1_layout(self):
        descriptor = RecordDescriptor(1, make_address(0, 64), 128)
        expected = (RECORD_HEADER_BYTES + 2 * PER_LINE_VERSION_BYTES + 128)
        assert descriptor.augmented_bytes() == expected

    def test_pickle_round_trip(self):
        descriptor = RecordDescriptor(7, make_address(3, 128), 300)
        restored = pickle.loads(pickle.dumps(descriptor))
        assert restored == descriptor
        assert type(restored) is RecordDescriptor
        assert restored.lines == descriptor.lines

    def test_immutable_and_slotted(self):
        descriptor = RecordDescriptor(1, make_address(0, 64), 128)
        with pytest.raises(AttributeError):
            descriptor.address = 0
        with pytest.raises(AttributeError):
            descriptor.extra = 1
        assert not hasattr(descriptor, "__dict__")
        assert descriptor == RecordDescriptor(1, make_address(0, 64), 128)
        assert hash(descriptor) == hash(
            RecordDescriptor(1, make_address(0, 64), 128))
        assert repr(descriptor) == (
            f"RecordDescriptor(record_id=1, address={make_address(0, 64)}, "
            f"data_bytes=128)")


class TestRecordMetadata:
    def test_fresh_metadata_consistent_and_unlocked(self):
        meta = RecordMetadata(line_count=2)
        assert not meta.locked
        assert meta.lines_consistent()
        assert meta.version == 0

    def test_line_count_validated(self):
        with pytest.raises(ValueError):
            RecordMetadata(0)

    def test_slotted_and_picklable(self):
        meta = RecordMetadata(3)
        meta.complete_write()
        meta.try_lock((1, 4))
        assert not hasattr(meta, "__dict__")
        restored = pickle.loads(pickle.dumps(meta))
        assert restored.version == 1
        assert restored.lock_owner == (1, 4)
        assert restored.line_versions == [1, 1, 1]

    def test_lock_unlock(self):
        meta = RecordMetadata(1)
        assert meta.try_lock((0, 1))
        assert meta.locked
        assert not meta.try_lock((0, 2))
        meta.unlock((0, 1))
        assert not meta.locked

    def test_lock_reentrant_for_same_owner(self):
        meta = RecordMetadata(1)
        assert meta.try_lock((0, 1))
        assert meta.try_lock((0, 1))

    def test_unlock_by_wrong_owner_is_bug(self):
        meta = RecordMetadata(1)
        meta.try_lock((0, 1))
        with pytest.raises(RuntimeError):
            meta.unlock((0, 2))

    def test_write_in_flight_breaks_consistency(self):
        meta = RecordMetadata(line_count=3)
        meta.begin_write()
        assert not meta.lines_consistent()
        meta.complete_write()
        assert meta.lines_consistent()
        assert meta.version == 1

    def test_single_line_record_always_consistent(self):
        meta = RecordMetadata(line_count=1)
        meta.begin_write()
        assert meta.lines_consistent()  # one line cannot be torn

    def test_versions_advance_per_write(self):
        meta = RecordMetadata(2)
        meta.complete_write()
        meta.complete_write()
        assert meta.version == 2
        assert meta.line_versions == [2, 2]

    def test_free_bumps_incarnation_and_resets(self):
        meta = RecordMetadata(2)
        meta.complete_write()
        meta.try_lock((0, 1))
        meta.free()
        assert meta.incarnation == 1
        assert meta.version == 0
        assert not meta.locked
        assert meta.lines_consistent()


class TestUnlockAfterApply:
    """The unlock that trails a commit write must not overtake it.

    FaRM packs version+lock into one word; the simulation splits them
    into a write (applied over a torn window) and an unlock (instant),
    so an unlock landing mid-apply must defer to complete_write.  The
    pre-fix behavior let a concurrent validation observe the old
    version with the lock already clear — a serializability hole (see
    tests/verify/test_serializability.py's pinned seeds).
    """

    def test_unlock_outside_apply_window_is_immediate(self):
        meta = RecordMetadata(1)
        meta.try_lock((0, 1))
        meta.unlock_after_apply((0, 1))
        assert not meta.locked

    def test_unlock_mid_apply_defers_until_complete_write(self):
        meta = RecordMetadata(1)
        meta.try_lock((0, 1))
        meta.begin_write()
        meta.unlock_after_apply((0, 1))
        # Still locked: a validator inside the window must see either
        # the lock or (after complete_write) the new version.
        assert meta.locked
        assert meta.version == 0
        meta.complete_write()
        assert not meta.locked
        assert meta.version == 1
        assert meta.pending_unlock is None

    def test_deferred_unlock_by_wrong_owner_is_bug(self):
        meta = RecordMetadata(1)
        meta.try_lock((0, 1))
        meta.begin_write()
        with pytest.raises(RuntimeError):
            meta.unlock_after_apply((0, 2))

    def test_free_clears_apply_window_state(self):
        meta = RecordMetadata(1)
        meta.try_lock((0, 1))
        meta.begin_write()
        meta.unlock_after_apply((0, 1))
        meta.free()
        assert not meta.applying
        assert meta.pending_unlock is None
        assert not meta.locked
