"""Tests for the four key-value store engines.

Each store is tested through the shared interface plus its structural
invariants; property-based tests compare every store against a plain
dict model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.crc import splitmix64
from repro.kvs import (STORES, BPlusTreeStore, BTreeStore, HashTableStore,
                       LookupResult, OrderedMapStore)


def make_store(kind):
    if kind == "ht":
        return HashTableStore(expected_keys=256)
    if kind == "btree":
        return BTreeStore(fanout=8)
    if kind == "bplustree":
        return BPlusTreeStore(fanout=8)
    return STORES[kind]()


@pytest.fixture(params=sorted(STORES))
def store(request):
    return make_store(request.param)


class TestCommonBehavior:
    def test_empty_store(self, store):
        assert len(store) == 0
        assert store.lookup(42) is None
        assert 42 not in store

    def test_insert_and_lookup(self, store):
        store.insert(5, 500)
        hit = store.lookup(5)
        assert hit.record_id == 500
        assert hit.probe_depth >= 1
        assert 5 in store
        assert len(store) == 1

    def test_overwrite_updates_value(self, store):
        store.insert(5, 500)
        store.insert(5, 999)
        assert store.lookup(5).record_id == 999
        assert len(store) == 1

    def test_bulk_load(self, store):
        store.bulk_load((key, key * 10) for key in range(200))
        assert len(store) == 200
        for key in (0, 57, 199):
            assert store.lookup(key).record_id == key * 10

    def test_missing_keys_after_load(self, store):
        store.bulk_load((key, key) for key in range(0, 100, 2))
        assert store.lookup(1) is None
        assert store.lookup(99) is None

    def test_large_sequential_and_random_loads(self, store):
        import random
        keys = list(range(1000))
        random.Random(3).shuffle(keys)
        for key in keys:
            store.insert(key, key + 1)
        assert len(store) == 1000
        assert all(store.lookup(key).record_id == key + 1
                   for key in range(0, 1000, 97))


class TestHashTable:
    def test_bucket_count_power_of_two(self):
        store = HashTableStore(expected_keys=100)
        assert store.bucket_count & (store.bucket_count - 1) == 0

    def test_probe_depth_counts_chain_position(self):
        store = HashTableStore(expected_keys=1)  # force chaining
        for key in range(20):
            store.insert(key, key)
        depths = [store.lookup(key).probe_depth for key in range(20)]
        assert max(depths) > 1

    def test_delete(self):
        store = HashTableStore(expected_keys=16)
        store.insert(1, 10)
        assert store.delete(1)
        assert store.lookup(1) is None
        assert not store.delete(1)
        assert len(store) == 0

    def test_validates_args(self):
        with pytest.raises(ValueError):
            HashTableStore(expected_keys=0)
        with pytest.raises(ValueError):
            HashTableStore(expected_keys=10, load_factor=0)

    def test_no_range_scan(self):
        with pytest.raises(NotImplementedError):
            HashTableStore(expected_keys=4).range_scan(0, 10)

    @staticmethod
    def reference_chains(operations, bucket_count):
        """Chains built one operation at a time: ``(key, record_id)``
        appends a new key to its bucket's chain or replaces an existing
        key in place; ``(key, None)`` deletes the key, and the keys
        after it in its chain move one position up."""
        chains = {}
        for key, record_id in operations:
            chain = chains.setdefault(splitmix64(key) & (bucket_count - 1), [])
            position = next((position for position, (existing, _record)
                             in enumerate(chain) if existing == key), None)
            if record_id is None:
                if position is not None:
                    del chain[position]
            elif position is None:
                chain.append((key, record_id))
            else:
                chain[position] = (key, record_id)
        return {key: (record_id, 1 + position)
                for chain in chains.values()
                for position, (key, record_id) in enumerate(chain)}

    def assert_matches_reference(self, pairs, expected_keys):
        """A bulk load, and one insert per pair, build the reference
        chains: same record ids, same chain order, same probe depths.
        Returns both stores."""
        bulk = HashTableStore(expected_keys=expected_keys)
        bulk.bulk_load(pairs)
        single = HashTableStore(expected_keys=expected_keys)
        for key, record_id in pairs:
            single.insert(key, record_id)
        expected = self.reference_chains(pairs, bulk.bucket_count)
        for store in (bulk, single):
            assert len(store) == len(expected)
            for key, (record_id, depth) in expected.items():
                assert store.lookup(key) == LookupResult(record_id, depth)
        return bulk, single

    def test_bulk_load_and_insert_give_the_same_probe_depths(self):
        # 8 buckets for 120 pairs: long chains, repeated keys.
        pairs = [((key * 37) % 90, key) for key in range(120)]
        bulk, single = self.assert_matches_reference(pairs, expected_keys=4)
        assert len(bulk) == 90
        assert bulk.max_chain_length() == single.max_chain_length() > 1

    def test_negative_keys_and_duplicates_in_one_batch(self):
        # 8 buckets; every key appears twice, negative and huge keys too.
        keys = ([-key * 37 % 90 - 45 for key in range(60)]
                + [-(2 ** 64), 2 ** 64, 2 ** 64 - 1, -1, 2 ** 70])
        pairs = [(key, index) for index, key in enumerate(keys + keys[::-1])]
        store, _single = self.assert_matches_reference(pairs, expected_keys=4)
        assert len(store) == len(set(keys))
        # Each key keeps its first chain slot but the batch's last id.
        last = {key: record_id for key, record_id in pairs}
        assert all(store.lookup(key).record_id == last[key] for key in keys)

    @given(st.lists(st.tuples(st.integers(), st.integers(0, 1000)),
                    max_size=80),
           st.sampled_from([1, 4, 64]))
    @settings(max_examples=60, deadline=None)
    def test_any_batch_matches_one_insert_at_a_time(self, pairs,
                                                    expected_keys):
        self.assert_matches_reference(pairs, expected_keys)

    @given(st.lists(st.tuples(st.integers(),
                              st.one_of(st.none(), st.integers(0, 1000))),
                    max_size=80),
           st.sampled_from([1, 4, 64]))
    @settings(max_examples=60, deadline=None)
    def test_deletes_match_the_reference(self, operations, expected_keys):
        # Runs of inserts go in as one bulk load each; (key, None) is a
        # delete.
        store = HashTableStore(expected_keys=expected_keys)
        applied = []
        run = []
        for key, record_id in operations + [(None, None)]:
            if record_id is not None:
                run.append((key, record_id))
                continue
            store.bulk_load(run)
            applied += run
            run = []
            if key is not None:
                present = key in self.reference_chains(applied,
                                                       store.bucket_count)
                assert store.delete(key) == present
                applied.append((key, None))
        expected = self.reference_chains(applied, store.bucket_count)
        assert len(store) == len(expected)
        for key, _record_id in operations:
            hit = expected.get(key)
            assert store.lookup(key) == (hit and LookupResult(*hit))
        longest = max((depth for _record_id, depth in expected.values()),
                      default=0)
        assert store.max_chain_length() == longest

    def test_delete_moves_later_keys_up_one(self):
        store = HashTableStore(expected_keys=1)  # one bucket: one chain
        store.bulk_load([(key, key * 10) for key in range(1, 6)])
        assert store.delete(2)
        assert [store.lookup(key) for key in (1, 3, 4, 5)] == [
            LookupResult(10, 1), LookupResult(30, 2), LookupResult(40, 3),
            LookupResult(50, 4)]
        store.insert(6, 60)
        store.insert(2, 21)
        assert store.lookup(6) == LookupResult(60, 5)
        assert store.lookup(2) == LookupResult(21, 6)
        assert store.delete(1) and store.delete(6)
        assert [store.lookup(key).probe_depth for key in (3, 4, 5, 2)] == [
            1, 2, 3, 4]
        assert len(store) == 4

    def test_duplicate_replaces_in_place(self):
        store = HashTableStore(expected_keys=1)  # one bucket: one chain
        store.bulk_load([(1, 10), (2, 20), (3, 30)])
        store.bulk_load([(2, 21)])
        store.insert(1, 11)
        assert [store.lookup(key) for key in (1, 2, 3)] == [
            LookupResult(11, 1), LookupResult(21, 2), LookupResult(30, 3)]
        assert len(store) == 3

    def test_never_used_buckets(self):
        store = HashTableStore(expected_keys=64)
        assert store.max_chain_length() == 0
        assert not store.delete(5)
        assert store.lookup(5) is None
        store.insert(5, 50)
        assert store.max_chain_length() == 1
        assert store.delete(5)
        assert not store.delete(5)
        assert store.max_chain_length() == 0
        assert len(store) == 0


class TestBTree:
    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            BTreeStore(fanout=2)

    def test_height_grows_logarithmically(self):
        store = BTreeStore(fanout=8)
        store.bulk_load((key, key) for key in range(1000))
        assert 3 <= store.height() <= 6

    def test_invariants_after_random_inserts(self):
        import random
        store = BTreeStore(fanout=8)
        keys = list(range(500))
        random.Random(7).shuffle(keys)
        for key in keys:
            store.insert(key, key)
        store.check_invariants()

    def test_range_scan_sorted_and_complete(self):
        store = BTreeStore(fanout=8)
        store.bulk_load((key, key * 2) for key in range(0, 300, 3))
        scan = store.range_scan(10, 50)
        assert scan == [(key, key * 2) for key in range(12, 51, 3)]

    def test_range_scan_rejects_inverted(self):
        with pytest.raises(ValueError):
            BTreeStore().range_scan(10, 5)


class TestBPlusTree:
    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            BPlusTreeStore(fanout=2)

    def test_invariants_after_random_inserts(self):
        import random
        store = BPlusTreeStore(fanout=8)
        keys = list(range(500))
        random.Random(9).shuffle(keys)
        for key in keys:
            store.insert(key, key)
        store.check_invariants()

    def test_leaf_chain_range_scan(self):
        store = BPlusTreeStore(fanout=8)
        store.bulk_load((key, key + 1) for key in range(200))
        assert store.range_scan(50, 60) == [(key, key + 1)
                                            for key in range(50, 61)]

    def test_scan_across_leaf_boundaries(self):
        store = BPlusTreeStore(fanout=4)  # tiny leaves -> many boundaries
        store.bulk_load((key, key) for key in range(100))
        assert len(store.range_scan(0, 99)) == 100

    def test_height_grows(self):
        store = BPlusTreeStore(fanout=4)
        store.bulk_load((key, key) for key in range(200))
        assert store.height() >= 3


class TestOrderedMap:
    def test_avl_invariants_after_adversarial_inserts(self):
        store = OrderedMapStore()
        for key in range(200):  # sorted inserts: worst case for a BST
            store.insert(key, key)
        store.check_invariants()
        assert store.height() <= 10  # balanced: ~1.44 log2(200) ≈ 11

    def test_probe_depth_bounded_by_height(self):
        store = OrderedMapStore()
        store.bulk_load((key, key) for key in range(128))
        for key in (0, 63, 127):
            assert store.lookup(key).probe_depth <= store.height()

    def test_range_scan_sorted(self):
        store = OrderedMapStore()
        store.bulk_load((key, key) for key in range(0, 100, 5))
        assert store.range_scan(10, 40) == [(key, key)
                                            for key in range(10, 41, 5)]


@pytest.mark.parametrize("kind", sorted(STORES))
@given(pairs=st.dictionaries(st.integers(min_value=0, max_value=10 ** 6),
                             st.integers(min_value=0, max_value=10 ** 9),
                             min_size=1, max_size=80))
@settings(max_examples=25, deadline=None)
def test_store_matches_dict_model(kind, pairs):
    """Property: every store behaves like a dict for insert/lookup."""
    store = make_store(kind)
    for key, value in pairs.items():
        store.insert(key, value)
    assert len(store) == len(pairs)
    for key, value in pairs.items():
        assert store.lookup(key).record_id == value
    for probe in [min(pairs) - 1, max(pairs) + 1]:
        if probe not in pairs and probe >= 0:
            assert store.lookup(probe) is None


@pytest.mark.parametrize("kind", ["btree", "bplustree", "map"])
@given(keys=st.sets(st.integers(min_value=0, max_value=10 ** 4),
                    min_size=2, max_size=60),
       bounds=st.tuples(st.integers(min_value=0, max_value=10 ** 4),
                        st.integers(min_value=0, max_value=10 ** 4)))
@settings(max_examples=25, deadline=None)
def test_range_scan_matches_sorted_filter(kind, keys, bounds):
    """Property: ordered stores' scans equal a sorted dict filter."""
    low, high = min(bounds), max(bounds)
    store = make_store(kind)
    for key in keys:
        store.insert(key, key * 3)
    expected = [(key, key * 3) for key in sorted(keys) if low <= key <= high]
    assert store.range_scan(low, high) == expected
