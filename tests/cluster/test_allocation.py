"""Tests for batch record allocation and the node memory record index.

The reference loop below is the one-record-at-a-time placement the bulk
path must reproduce exactly: each record goes to its splitmix64 home
(or the given one) and takes the next line-aligned offset there.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeMemory
from repro.cluster.address import LINE_BYTES, line_of, make_address
from repro.config import ClusterConfig
from repro.hardware.crc import splitmix64
from repro.recovery.scrub import scrub_dead_residue, wipe_volatile_state
from repro.sim import Engine
from repro.trace import load_trace, record_trace, replay_trace, save_trace
from repro.verify import find_leaks
from repro.workloads import MicroWorkload, TpccWorkload, YcsbWorkload
from repro.workloads.mixes import RECORD_ID_STRIDE

CONFIG = ClusterConfig(nodes=4, cores_per_node=2)


def one_at_a_time(nodes, records):
    """``record_id -> (home, address, data_bytes, line_count)`` and each
    node's allocated bytes, placing ``(record_id, data_bytes)`` pairs,
    or ``(record_id, data_bytes, home)`` triples, one by one in the
    order given."""
    next_offset = [LINE_BYTES] * nodes
    placed = {}
    for record in records:
        record_id, data_bytes = record[:2]
        home = record[2] if len(record) > 2 else splitmix64(record_id) % nodes
        lines = (data_bytes + LINE_BYTES - 1) // LINE_BYTES
        placed[record_id] = (home, make_address(home, next_offset[home]),
                             data_bytes, lines)
        next_offset[home] += lines * LINE_BYTES
    return placed, [offset - LINE_BYTES for offset in next_offset]


def ycsb_records(workload):
    return [(workload.record_id_base + key, workload.record_bytes)
            for key in range(workload.record_count)]


def tpcc_records(workload):
    """TPC-C's tables in population order, each with its record size."""
    from repro.workloads import tpcc

    return (
        [(workload.warehouse_record(w), tpcc.WAREHOUSE_BYTES)
         for w in range(workload.warehouses)]
        + [(workload.district_record(0, 0) + d, tpcc.DISTRICT_BYTES)
           for d in range(workload.districts)]
        + [(workload.customer_record(0, 0) + c, tpcc.CUSTOMER_BYTES)
           for c in range(workload.customers)]
        + [(workload.item_record(i), tpcc.ITEM_BYTES)
           for i in range(workload.items)]
        + [(workload.stock_record(0, 0) + s, tpcc.STOCK_BYTES)
           for s in range(workload.stock_records)]
        + [(workload.order_record(0, 0) + o, tpcc.ORDER_BYTES)
           for o in range(workload.order_slots)])


def make_cluster(config=CONFIG):
    return Cluster(Engine(), config, llc_sets=64)


def shape(descriptor):
    return (descriptor.home_node, descriptor.address, descriptor.data_bytes,
            descriptor.line_count)


def assert_matches_reference(cluster, records):
    """The record table and every node's memory are what placing
    ``records`` one at a time gives: each descriptor, the id order of
    ``iter_records``, the count, no record in the gaps next to an
    allocated id, and every node's allocated bytes."""
    placed, allocated = one_at_a_time(cluster.config.nodes, records)
    assert [(record_id, shape(d)) for record_id, d
            in cluster.iter_records()] == sorted(placed.items())
    assert cluster.record_count == len(placed)
    for record_id, expected in placed.items():
        assert cluster.has_record(record_id)
        descriptor = cluster.record(record_id)
        assert descriptor.record_id == record_id
        assert shape(descriptor) == expected
    gaps = {near for record_id in placed
            for near in (record_id - 1, record_id + 1)} - placed.keys()
    for record_id in gaps:
        assert not cluster.has_record(record_id)
        with pytest.raises(KeyError):
            cluster.record(record_id)
    assert [node.memory.allocated_bytes for node in cluster.nodes] == allocated


#: Mixed record sizes: 1, 2, 16, 1 and 4 lines.
SIZES = (64, 100, 1024, 10, 200)


class TestPlacementMatchesOneAtATime:
    def test_ycsb(self):
        workload = YcsbWorkload(record_count=3000)
        cluster = make_cluster()
        workload.populate(cluster)
        assert_matches_reference(cluster, ycsb_records(workload))

    def test_tpcc_mixed_record_sizes(self):
        workload = TpccWorkload(warehouses=2, items=100)
        cluster = make_cluster()
        workload.populate(cluster)
        assert_matches_reference(cluster, tpcc_records(workload))

    def test_two_workloads_sharing_a_cluster(self):
        ycsb = YcsbWorkload(record_count=1500)
        tpcc = TpccWorkload(warehouses=1, items=100,
                            record_id_base=RECORD_ID_STRIDE)
        cluster = make_cluster(ClusterConfig(nodes=5))
        ycsb.populate(cluster)
        tpcc.populate(cluster)
        assert_matches_reference(cluster,
                                 ycsb_records(ycsb) + tpcc_records(tpcc))

    def test_non_contiguous_ids(self):
        ids = [9, 2, 7, 40, 3, 10 ** 12, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
               2 ** 90]
        cluster = make_cluster()
        cluster.allocate_records(ids, 100)
        cluster.allocate_records(range(1000, 3000, 7), 1024)
        assert_matches_reference(
            cluster, [(record_id, 100) for record_id in ids]
            + [(record_id, 1024) for record_id in range(1000, 3000, 7)])

    def test_negative_ids(self):
        cluster = make_cluster(ClusterConfig(nodes=5))
        cluster.allocate_records(range(-1, -1500, -3), 200)
        cluster.allocate_records([-(2 ** 64), -(2 ** 64) - 1, 5, -8], 64)
        assert_matches_reference(
            cluster, [(record_id, 200) for record_id in range(-1, -1500, -3)]
            + [(record_id, 64)
               for record_id in (-(2 ** 64), -(2 ** 64) - 1, 5, -8)])

    @given(st.lists(st.integers(), unique=True, max_size=60),
           st.sampled_from(SIZES))
    @settings(max_examples=50, deadline=None)
    def test_any_batch_of_distinct_ids(self, ids, size):
        cluster = make_cluster()
        cluster.allocate_records(ids, size)
        assert_matches_reference(cluster, [(record_id, size)
                                           for record_id in ids])

    def test_descriptors_come_back_in_batch_order(self):
        cluster = make_cluster()
        ids = [9, 2, 7, 40, 3]
        descriptors = cluster.allocate_records(ids, 100)
        assert [d.record_id for d in descriptors] == ids
        assert all(cluster.record(d.record_id) is d for d in descriptors)

    def test_explicit_home_places_the_whole_batch(self):
        cluster = make_cluster()
        descriptors = cluster.allocate_records(range(10), 64, home=2)
        assert {d.home_node for d in descriptors} == {2}
        assert cluster.node(2).memory.allocated_bytes == 10 * LINE_BYTES


#: Range starts near zero, and past the int64 and uint64 edges.
RANGE_STARTS = st.one_of(
    st.integers(-40, 80),
    st.sampled_from([-(2 ** 64) - 7, 2 ** 63 - 5, 2 ** 64 + 3, 2 ** 90]))

#: One allocation call: ``(kind, ids, size, home)``.  "after" starts a
#: range just past the highest id allocated so far, when the test runs.
BATCHES = st.one_of(
    st.tuples(st.just("range"),
              st.builds(lambda start, length, step:
                        range(start, start + length * step, step),
                        RANGE_STARTS, st.integers(0, 12),
                        st.sampled_from([1, 1, 1, 2, -1, -3])),
              st.sampled_from(SIZES), st.none()),
    st.tuples(st.just("after"), st.integers(0, 12), st.sampled_from(SIZES),
              st.none()),
    st.tuples(st.just("list"), st.lists(st.integers(-40, 80), max_size=8),
              st.sampled_from(SIZES), st.none()),
    st.tuples(st.just("replay"), st.integers(-40, 80), st.sampled_from(SIZES),
              st.integers(0, CONFIG.nodes - 1)))


def first_clash(placed, ids):
    """The first id of a batch that is allocated or repeated."""
    seen = set()
    for record_id in ids:
        if record_id in placed or record_id in seen:
            return record_id
        seen.add(record_id)
    return None


class TestMixedBatches:
    """Range batches, id lists and one-record replays in any order."""

    @given(st.lists(BATCHES, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_any_sequence_matches_one_at_a_time(self, batches):
        cluster = make_cluster()
        records = []
        for kind, ids, size, home in batches:
            placed, _allocated = one_at_a_time(CONFIG.nodes, records)
            if kind == "after":
                top = max(placed, default=-1) + 1
                ids = range(top, top + ids)
            elif kind == "replay":
                ids = [ids]
            clash = first_clash(placed, ids)
            if clash is not None:
                with pytest.raises(
                        ValueError,
                        match=re.escape(f"record {clash} already allocated")):
                    cluster.allocate_records(ids, size, home=home)
            else:
                descriptors = cluster.allocate_records(ids, size, home=home)
                records += [(record_id, size) if home is None
                            else (record_id, size, home) for record_id in ids]
                placed, _allocated = one_at_a_time(CONFIG.nodes, records)
                assert [(d.record_id, shape(d)) for d in descriptors] == [
                    (record_id, placed[record_id]) for record_id in ids]
            assert_matches_reference(cluster, records)

    def test_range_overlapping_a_range_names_its_first_clash(self):
        cluster = make_cluster()
        cluster.allocate_records(range(10, 20), 64)
        cluster.allocate_records(range(30, 40), 64)
        for ids, clash in ((range(5, 12), 10), (range(15, 35), 15),
                           (range(25, 45), 30), (range(0, 100), 10),
                           ([3, 31, 12], 31)):
            with pytest.raises(ValueError,
                               match=f"record {clash} already allocated"):
                cluster.allocate_records(ids, 64)
        assert_matches_reference(cluster, [(record_id, 64) for record_id
                                           in [*range(10, 20), *range(30, 40)]])

    def test_range_over_an_explicit_id_names_the_lowest(self):
        cluster = make_cluster()
        cluster.allocate_records([57, 12, 40], 100)
        cluster.allocate_record(33, 64, home=1)
        cluster.allocate_records(range(0, 12), 64)
        with pytest.raises(ValueError, match="record 33 already allocated"):
            cluster.allocate_records(range(13, 60), 64)
        with pytest.raises(ValueError, match="record 12 already allocated"):
            cluster.allocate_records(range(12, 13), 64)
        cluster.allocate_records(range(13, 33), 64)
        assert_matches_reference(
            cluster, [(57, 100), (12, 100), (40, 100), (33, 64, 1)]
            + [(record_id, 64) for record_id in [*range(0, 12),
                                                  *range(13, 33)]])

    def test_one_record_allocation_does_not_walk_the_table(self):
        # A trace replay allocates its records one call each; a check
        # that walked every allocated record made the replay quadratic.
        class NoWalk(dict):
            def __iter__(self):
                raise AssertionError("walked the record table")

        cluster = make_cluster()
        records = [(record_id, 64, record_id % 4) for record_id in range(50)]
        for record_id, size, home in records:
            cluster.allocate_record(record_id, size, home=home)
        cluster._descriptors = NoWalk(cluster._descriptors)
        cluster.allocate_record(50, 64, home=2)
        cluster.allocate_records([60, 61], 100)
        with pytest.raises(ValueError, match="record 7 already allocated"):
            cluster.allocate_record(7, 64)
        cluster._descriptors = dict(cluster._descriptors)
        assert_matches_reference(cluster, records + [(50, 64, 2), (60, 100),
                                                     (61, 100)])

    def test_descriptors_asked_for_are_kept(self):
        cluster = make_cluster()
        descriptors = cluster.allocate_records(range(5, 25), 100)
        assert len(descriptors) == 20
        assert descriptors[-1].record_id == 24
        assert [d.record_id for d in descriptors[2:5]] == [7, 8, 9]
        assert cluster.record(7) is descriptors[2] is cluster.record(7)


class TestRejectedBatches:
    def test_duplicate_inside_batch(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="record 5 already allocated"):
            cluster.allocate_records([4, 5, 6, 5], 64)
        # Nothing of the rejected batch was placed.
        assert cluster.record_count == 0
        assert all(node.memory.allocated_bytes == 0 for node in cluster.nodes)

    def test_duplicate_of_an_allocated_record(self):
        cluster = make_cluster()
        cluster.allocate_records(range(3), 64)
        with pytest.raises(ValueError, match="record 2 already allocated"):
            cluster.allocate_records(range(2, 6), 64)
        assert cluster.record_count == 3

    @pytest.mark.parametrize("home", [-1, CONFIG.nodes, CONFIG.nodes + 7])
    def test_home_outside_the_cluster(self, home):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="outside"):
            cluster.allocate_record(1, 64, home=home)
        with pytest.raises(ValueError, match="outside"):
            cluster.allocate_records([1, 2], 64, home=home)
        assert cluster.record_count == 0

    @pytest.mark.parametrize("home", [-1, 3])
    def test_replayed_trace_with_a_bad_home(self, tmp_path, home):
        config = ClusterConfig(nodes=3, cores_per_node=2, multiplexing=1)
        trace = record_trace(MicroWorkload(0.5, record_count=50, seed=3),
                             config=config, transactions_per_client=1)
        record_id, data_bytes, _home = trace.records[0]
        trace.records[0] = (record_id, data_bytes, home)
        path = str(tmp_path / "bad_home.jsonl")
        save_trace(trace, path)
        with pytest.raises(ValueError, match=f"home node {home} outside"):
            replay_trace("hades", load_trace(path))

    @pytest.mark.parametrize("ids", [range(12), list(range(12))])
    def test_batch_that_does_not_fit_allocates_nothing(self, ids):
        # Node 2 and 3's shares fit in a node's 1 TiB, node 0 and 1's
        # do not: the batch must fail before any node allocates.
        cluster = make_cluster()
        with pytest.raises(ValueError, match="offset out of range"):
            cluster.allocate_records(ids, (1 << 40) // 3)
        assert cluster.record_count == 0
        assert list(cluster.iter_records()) == []
        assert not any(cluster.has_record(record_id) for record_id in ids)
        for node in cluster.nodes:
            assert node.memory.allocated_bytes == 0
            assert not node.memory.has_record(make_address(node.node_id,
                                                           LINE_BYTES))
        cluster.allocate_records(ids, 100)
        assert_matches_reference(cluster, [(record_id, 100)
                                           for record_id in ids])

    def test_non_positive_size(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.allocate_records(range(4), 0)
        assert cluster.record_count == 0


def mixed_memory(node_id=1):
    memory = NodeMemory(node_id)
    descriptors = [memory.allocate_record(record_id, size)
                   for record_id, size in enumerate(SIZES)]
    return memory, descriptors


class TestRecordIndex:
    def test_every_line_maps_to_its_record(self):
        memory, descriptors = mixed_memory()
        for descriptor in descriptors:
            lines = descriptor.lines
            for line in (lines[0], lines[len(lines) // 2], lines[-1]):
                assert (memory.record_address_of_line(line)
                        == descriptor.address)

    def test_lines_outside_the_allocated_range_raise(self):
        memory, descriptors = mixed_memory(node_id=1)
        end = descriptors[-1].address + 4 * LINE_BYTES
        outside = [
            line_of(make_address(1, 0)),       # below the first record
            line_of(make_address(0, 1 << 20)),  # another node, below
            line_of(end),                        # just past the last record
            line_of(end) + 1000,
            line_of(make_address(2, LINE_BYTES)),  # another node, above
        ]
        for line in outside:
            with pytest.raises(KeyError):
                memory.record_address_of_line(line)

    def test_empty_memory_has_no_records(self):
        memory = NodeMemory(0)
        with pytest.raises(KeyError):
            memory.record_address_of_line(line_of(make_address(0, 64)))
        assert not memory.has_record(make_address(0, 64))

    def test_has_record_only_at_record_starts(self):
        memory, descriptors = mixed_memory()
        for descriptor in descriptors:
            assert memory.has_record(descriptor.address)
        assert not memory.has_record(descriptors[2].address + LINE_BYTES)
        assert not memory.has_record(descriptors[-1].address + 4 * LINE_BYTES)

    def test_bump_versions_counts_each_record_once(self):
        memory, descriptors = mixed_memory()
        big, small, four = descriptors[2], descriptors[3], descriptors[4]
        lines = big.lines + small.lines + four.lines[1:3] + big.lines[:2]
        assert memory.bump_versions_for_lines(lines) == 3
        for descriptor in (big, small, four):
            meta = memory.metadata(descriptor.address)
            assert meta.version == 1
            assert meta.line_versions == [1] * descriptor.line_count
        assert memory.metadata(descriptors[0].address).version == 0


class TestLazyMetadata:
    def test_untouched_record_is_fresh(self):
        memory, descriptors = mixed_memory()
        for descriptor in descriptors:
            meta = memory.metadata(descriptor.address)
            assert meta.version == 0 and meta.incarnation == 0
            assert not meta.locked and not meta.applying
            assert meta.line_versions == [0] * descriptor.line_count
            assert memory.metadata(descriptor.address) is meta

    def test_only_touched_records_have_metadata(self):
        memory, descriptors = mixed_memory()
        assert memory.iter_metadata() == []
        memory.metadata(descriptors[3].address)
        memory.metadata(descriptors[1].address)
        assert [address for address, _meta in memory.iter_metadata()] == [
            descriptors[1].address, descriptors[3].address]

    def test_metadata_off_a_record_start_raises(self):
        memory, descriptors = mixed_memory()
        with pytest.raises(KeyError):
            memory.metadata(descriptors[2].address + LINE_BYTES)

    def held_lock(self):
        """A populated cluster with one record lock held by node 2's
        transaction 5, on a node with no other transactional state."""
        cluster = make_cluster()
        cluster.allocate_records(range(400), 100)
        record = next(d for _id, d in cluster.iter_records()
                      if d.home_node == 0)
        node = cluster.node(0)
        for _id, other in list(cluster.iter_records())[:50]:
            cluster.node(other.home_node).memory.metadata(other.address)
        assert node.memory.metadata(record.address).try_lock((2, 5))
        return cluster, node, record

    def test_find_leaks_names_the_held_lock(self):
        cluster, _node, record = self.held_lock()
        assert find_leaks(cluster) == [
            f"node 0: record lock at {record.address:#x} held by (2, 5)"]

    def test_crash_wipe_releases_the_held_lock(self):
        cluster, node, record = self.held_lock()
        assert wipe_volatile_state(node) == 1
        assert not node.memory.metadata(record.address).locked
        assert find_leaks(cluster) == []

    def test_scrub_releases_the_dead_owners_lock(self):
        cluster, node, record = self.held_lock()
        assert scrub_dead_residue(node, dead=1) == (0, set())
        assert scrub_dead_residue(node, dead=2) == (1, {(2, 5)})
        assert not node.memory.metadata(record.address).locked
