"""Differential tests: the Bloom conflict-check kernels against the
per-probe ``might_contain`` loops they replace.

The reference functions below are the loops the directory, the NIC and
the Module 3 table ran before the kernels in
:mod:`repro.hardware.bloom`: one ``might_contain`` call per probe, with
the same short-circuits, so they also charge the Table III counters one
probe at a time.  Every check compares decisions, result fields (the
conflicting sets in iteration order, which is the order squashes are
sent in) and the ``total_read_ops``/``total_write_ops`` deltas.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node
from repro.config import BloomParams, ClusterConfig
from repro.hardware import bloom
from repro.hardware.bloom import (
    BloomFilter,
    SplitWriteBloomFilter,
    any_key_might_contain,
    any_might_contain,
    any_pair_might_contain,
    scan_groups,
)
from repro.hardware.directory import Directory
from repro.hardware.nic import Nic

#: 256 line addresses: small enough that probes hit inserted lines,
#: WrBF2 positions collide (64 LLC sets) and 64-bit filters saturate.
LINES = st.integers(0, 255).map(lambda i: i * 64)
KEY_SETS = st.one_of(
    st.just([]),                                   # empty
    st.lists(LINES, min_size=1, max_size=4),       # sparse
    st.lists(LINES, min_size=40, max_size=80),     # saturated
)
#: (bits, hashes): several hash families in one call.
PLAIN_SHAPES = st.sampled_from([(64, 2), (64, 1), (128, 2)])
#: (crc_bits, index_bits, llc_sets): WrBF2 bits shared by many lines.
SPLIT_SHAPES = st.sampled_from([(64, 64, 64), (128, 32, 128)])

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def filters(draw, keys=KEY_SETS, plain=PLAIN_SHAPES, split=SPLIT_SHAPES):
    """A plain or split filter holding a drawn key set."""
    if draw(st.booleans()):
        bits, hashes = draw(plain)
        filt = BloomFilter(bits, hashes)
    else:
        crc_bits, index_bits, llc_sets = draw(split)
        filt = SplitWriteBloomFilter(crc_bits=crc_bits, index_bits=index_bits,
                                     llc_sets=llc_sets)
    for key in draw(keys):
        filt.insert(key)
    return filt


#: Filters of one hash family and one split shape, mostly sparse: the
#: multi-key kernels test a call's keys against the filters' union and
#: settle the calls no key fits.
UNION_FILTERS = filters(
    keys=st.one_of(st.just([]), st.lists(LINES, min_size=1, max_size=4),
                   st.lists(LINES, min_size=40, max_size=80)),
    plain=st.just((64, 2)), split=st.just((64, 64, 64)))


def filter_kinds():
    """Per call: filters the union may settle, or filters of several
    hash families and split shapes, which fall back to the exact loop."""
    return st.sampled_from([UNION_FILTERS, filters()])


def counted(call):
    """``call()``'s value and the (read, write) accesses it charged."""
    reads, writes = BloomFilter.total_read_ops, BloomFilter.total_write_ops
    value = call()
    return (value, BloomFilter.total_read_ops - reads,
            BloomFilter.total_write_ops - writes)


def assert_same(kernel, reference):
    assert counted(kernel) == counted(reference)


def insert_each(filt, keys):
    """Reference bulk insert: one ``insert`` per key."""
    for key in keys:
        filt.insert(key)


# -- reference loops ---------------------------------------------------


def ref_read_blocked(buffers, partial, line, requester):
    if not buffers:
        return False
    if not partial:
        return any(owner != requester for owner, _, _ in buffers)
    for owner, _read_bf, write_bf in buffers:
        if owner != requester and write_bf.might_contain(line):
            return True
    return False


def ref_write_blocked(buffers, partial, line, requester):
    if not buffers:
        return False
    if not partial:
        return any(owner != requester for owner, _, _ in buffers)
    for owner, read_bf, write_bf in buffers:
        if owner != requester and (read_bf.might_contain(line)
                                   or write_bf.might_contain(line)):
            return True
    return False


def ref_try_lock(buffers, partial, capacity, write_lines):
    if not partial and buffers:
        return False
    if len(buffers) >= capacity:
        return False
    for _owner, read_bf, write_bf in buffers:
        for line in write_lines:
            if read_bf.might_contain(line) or write_bf.might_contain(line):
                return False
    return True


def ref_first_blocked(blocked, lines):
    for line in lines:
        if blocked(line):
            return True
    return False


def ref_remote_conflicts(states, lines, exclude, reads_matter):
    """``states``: owner -> (read_bf, write_bf, exact reads, exact writes)."""
    owners, checks, hits, false_positives = set(), 0, 0, 0
    for owner, (read_bf, write_bf, reads, writes) in states.items():
        if owner == exclude:
            continue
        for line in lines:
            checks += 1
            hit_read = reads_matter and read_bf.might_contain(line)
            hit_write = write_bf.might_contain(line)
            if hit_read or hit_write:
                hits += 1
                if not ((hit_read and line in reads)
                        or (hit_write and line in writes)):
                    false_positives += 1
                owners.add(owner)
                break
    return list(owners), checks, hits, false_positives


def ref_local_readers_of(table, line, exclude):
    """``table``: txid -> (read_bf, write_bf, exact reads, exact writes)."""
    txids, checks, hits, false_positives = set(), 0, 0, 0
    for txid, (read_bf, _write_bf, reads, _writes) in table.items():
        if txid == exclude:
            continue
        checks += 1
        if read_bf.might_contain(line):
            hits += 1
            if line not in reads:
                false_positives += 1
            txids.add(txid)
    return list(txids), checks, hits, false_positives


def ref_local_conflicts(table, lines, exclude):
    txids, checks, hits, false_positives = set(), 0, 0, 0
    for txid, (read_bf, write_bf, reads, writes) in table.items():
        if txid == exclude:
            continue
        for line in lines:
            checks += 1
            hit_read = read_bf.might_contain(line)
            hit_write = write_bf.might_contain(line)
            if hit_read or hit_write:
                hits += 1
                if not (line in reads or line in writes):
                    false_positives += 1
                txids.add(txid)
                break
    return list(txids), checks, hits, false_positives


def remote_fields(result):
    return (list(result.conflicting_owners), result.checks, result.hits,
            result.false_positive_hits)


def local_fields(result):
    return (list(result.conflicting_txids), result.checks, result.hits,
            result.false_positive_hits)


# -- the directory -----------------------------------------------------


@SETTINGS
@given(data=st.data())
def test_directory_checks_match_reference(data):
    partial = data.draw(st.booleans(), label="partial")
    count = data.draw(st.integers(0, 5 if partial else 1), label="buffers")
    kind = data.draw(filter_kinds(), label="filter kind")
    buffers = [((node, slot), data.draw(kind), data.draw(kind))
               for slot, node in enumerate(
                   data.draw(st.lists(st.integers(0, 2), min_size=count,
                                      max_size=count)))]
    directory = Directory(locking_buffers=8, partial=partial)
    for owner, read_bf, write_bf in buffers:
        assert directory.try_lock(owner, read_bf, write_bf, [])
    if buffers:
        # No code stops a locked filter from changing; probes see it live.
        _owner, read_bf, write_bf = data.draw(st.sampled_from(buffers))
        late = data.draw(st.lists(LINES, max_size=3), label="late keys")
        data.draw(st.sampled_from([read_bf, write_bf])).insert_all(late)
    owners = [owner for owner, _, _ in buffers]
    requester = data.draw(st.sampled_from([None, (5, 5)] + owners),
                          label="requester")
    lines = data.draw(st.lists(LINES, max_size=6), label="lines")
    for line in lines:
        assert_same(lambda: directory.read_blocked(line, requester),
                    lambda: ref_read_blocked(buffers, partial, line,
                                             requester))
        assert_same(lambda: directory.write_blocked(line, requester),
                    lambda: ref_write_blocked(buffers, partial, line,
                                              requester))
    assert_same(lambda: directory.any_read_blocked(lines, requester),
                lambda: ref_first_blocked(
                    lambda line: ref_read_blocked(buffers, partial, line,
                                                  requester), lines))
    assert_same(lambda: directory.any_write_blocked(lines, requester),
                lambda: ref_first_blocked(
                    lambda line: ref_write_blocked(buffers, partial, line,
                                                   requester), lines))
    # The list checks against the directory's own per-line checks.
    assert_same(lambda: directory.any_read_blocked(lines, requester),
                lambda: ref_first_blocked(
                    lambda line: directory.read_blocked(line, requester),
                    lines))
    assert_same(lambda: directory.any_write_blocked(lines, requester),
                lambda: ref_first_blocked(
                    lambda line: directory.write_blocked(line, requester),
                    lines))

    newcomer = ((6, 6), data.draw(kind), data.draw(kind))
    expected = counted(lambda: ref_try_lock(buffers, partial, 8, lines))
    assert counted(lambda: directory.try_lock(*newcomer, lines)) == expected
    if expected[0]:
        buffers.append(newcomer)
    if buffers:
        gone = data.draw(st.sampled_from([owner for owner, _, _ in buffers]),
                         label="unlocked")
        directory.unlock(gone)
        buffers = [entry for entry in buffers if entry[0] != gone]
    assert directory.lock_owners() == [owner for owner, _, _ in buffers]
    for line in lines:
        assert_same(lambda: directory.write_blocked(line, requester),
                    lambda: ref_write_blocked(buffers, partial, line,
                                              requester))


def test_own_lock_never_blocks_its_owner():
    directory = Directory()
    read_bf, write_bf = BloomFilter(64), BloomFilter(64)
    read_bf.insert(64)
    write_bf.insert(128)
    assert directory.try_lock((0, 1), read_bf, write_bf, [128])
    assert counted(lambda: directory.read_blocked(128, (0, 1))) == (
        False, 0, 0)
    assert counted(lambda: directory.write_blocked(64, (0, 1))) == (
        False, 0, 0)
    assert directory.write_blocked(64, (0, 2))
    # The list checks cut the requester's own buffer out too.
    assert directory.try_lock((0, 2), BloomFilter(64), BloomFilter(64), [])
    lines = [256, 128, 64]
    for requester, blocked in (((0, 1), False), ((0, 2), True)):
        for check, per_line in (
                (directory.any_read_blocked, directory.read_blocked),
                (directory.any_write_blocked, directory.write_blocked)):
            assert_same(lambda: check(lines, requester),
                        lambda: ref_first_blocked(
                            lambda line: per_line(line, requester), lines))
            assert check(lines, requester) is blocked


# -- the NIC (Module 4a) -----------------------------------------------


@SETTINGS
@given(data=st.data())
def test_nic_checks_match_reference(data):
    bits, hashes = data.draw(PLAIN_SHAPES, label="nic shape")
    nic = Nic(0, BloomParams(nic_read_bits=bits, nic_write_bits=bits,
                             nic_hashes=hashes),
              bf_pair_capacity=8, module4b_capacity=8)
    owners = data.draw(st.lists(st.tuples(st.integers(1, 3),
                                          st.integers(0, 9)),
                                max_size=5, unique=True), label="owners")
    states = {}
    for owner in owners:
        reads = data.draw(KEY_SETS, label="reads")
        writes = data.draw(KEY_SETS, label="writes")
        twin_read = BloomFilter(bits, hashes)
        twin_write = BloomFilter(bits, hashes)
        assert_same(lambda: nic.record_remote_read(owner, reads),
                    lambda: insert_each(twin_read, reads))
        assert_same(lambda: nic.record_remote_write(owner, writes),
                    lambda: insert_each(twin_write, writes))
        state = nic.remote_state(owner)
        assert_same_filter(state.read_bf, twin_read)
        assert_same_filter(state.write_bf, twin_write)
        assert state.shadow_reads == set(reads)
        assert state.shadow_writes == set(writes)
        states[owner] = (state.read_bf, state.write_bf, set(reads),
                         set(writes))
    lines = data.draw(st.lists(LINES, max_size=8), label="lines")
    exclude = data.draw(st.sampled_from([None] + owners), label="exclude")
    reads_matter = data.draw(st.booleans(), label="reads_matter")
    assert_same(
        lambda: remote_fields(nic.check_remote_conflicts(
            lines, exclude=exclude, reads_matter=reads_matter)),
        lambda: ref_remote_conflicts(states, lines, exclude, reads_matter))


# -- the Module 3 table ------------------------------------------------


@SETTINGS
@given(data=st.data())
def test_module3_checks_match_reference(data):
    config = ClusterConfig(bloom=BloomParams(
        core_read_bits=64, core_write_crc_bits=64, core_write_index_bits=64))
    node = Node(0, config, llc_sets=64)
    txids = data.draw(st.lists(st.integers(0, 9), max_size=6, unique=True),
                      label="txids")
    table = {}
    for txid in txids:
        state = node.register_local_tx(txid)
        reads = data.draw(KEY_SETS, label="reads")
        writes = data.draw(KEY_SETS, label="writes")
        for line in reads:
            state.record_read(line)
        for line in writes:
            state.record_write(line)
        assert state.shadow_reads == set(reads)
        assert state.shadow_writes == set(writes)
        table[txid] = (state.read_bf, state.write_bf, set(reads),
                       set(writes))
    lines = data.draw(st.lists(LINES, max_size=6), label="lines")
    exclude = data.draw(st.sampled_from([None] + txids), label="exclude")
    for line in lines:
        assert_same(
            lambda: local_fields(node.local_readers_of(line, exclude)),
            lambda: ref_local_readers_of(table, line, exclude))
    assert_same(
        lambda: local_fields(node.check_local_conflicts(lines, exclude)),
        lambda: ref_local_conflicts(table, lines, exclude))


def test_split_probe_hitting_wrbf2_only_is_a_miss():
    """A line sharing an inserted line's WrBF2 bit but not its WrBF1 bit
    is rejected, and still costs both sections' reads."""
    config = ClusterConfig(bloom=BloomParams(
        core_read_bits=64, core_write_crc_bits=512, core_write_index_bits=64))
    node = Node(0, config, llc_sets=64)
    writer = node.register_local_tx(1)
    writer.record_write(0)
    twins = [64 * 64 * k for k in range(1, 40)]  # same LLC set as line 0
    miss = next(line for line in twins
                if not writer.write_bf.crc_section.might_contain(line))
    result, reads, _ = counted(lambda: node.check_local_conflicts([miss]))
    assert local_fields(result) == ([], 1, 0, 0)
    assert reads == 3  # read BF 1 + split write BF 2


@SETTINGS
@given(data=st.data())
def test_scan_groups_matches_reference(data):
    """Groups mixing filter kinds, in one hash family or several."""
    kind = data.draw(filter_kinds(), label="filter kind")
    groups = data.draw(st.lists(st.lists(kind, min_size=1, max_size=3),
                                max_size=5), label="groups")
    keys = data.draw(st.lists(LINES, max_size=6), label="keys")
    assert_same(lambda: scan_groups(groups, keys),
                lambda: ref_scan_groups(groups, keys))


def ref_scan_groups(groups, keys):
    hits, checks, false_positives = [], 0, 0
    for index, group in enumerate(groups):
        for key in keys:
            checks += 1
            if any([filt.might_contain(key) for filt in group]):
                hits.append(index)
                if not any(key in filt.inserted_keys for filt in group):
                    false_positives += 1
                break
    return hits, checks, false_positives


# -- the multi-key kernels and their union ------------------------------


def ref_any_key(filters, keys):
    for key in keys:
        for filt in filters:
            if filt.might_contain(key):
                return True
    return False


def ref_any_pair(filters, keys):
    for index in range(0, len(filters), 2):
        read_bf, write_bf = filters[index], filters[index + 1]
        for key in keys:
            if read_bf.might_contain(key) or write_bf.might_contain(key):
                return True
    return False


@SETTINGS
@given(data=st.data())
def test_any_key_might_contain_matches_reference(data):
    kind = data.draw(filter_kinds(), label="filter kind")
    filts = data.draw(st.lists(kind, max_size=6), label="filters")
    keys = data.draw(st.lists(LINES, max_size=8), label="keys")
    assert_same(lambda: any_key_might_contain(filts, keys),
                lambda: ref_any_key(filts, keys))
    assert_same(lambda: any_key_might_contain(filts, keys),
                lambda: any(any_might_contain(filts, key) for key in keys))


@SETTINGS
@given(data=st.data())
def test_any_pair_might_contain_matches_reference(data):
    kind = data.draw(filter_kinds(), label="filter kind")
    pairs = data.draw(st.lists(st.tuples(kind, kind), max_size=5),
                      label="pairs")
    filts = tuple(filt for pair in pairs for filt in pair)
    keys = data.draw(st.lists(LINES, max_size=8), label="keys")
    assert_same(lambda: any_pair_might_contain(filts, keys),
                lambda: ref_any_pair(filts, keys))


def family_mask(filt, key):
    return filt._family.mask(key)


def union_fit_without_a_hit():
    """Plain filters ``a`` and ``b`` of one family and a key whose two
    bits are one in each, so it fits their union but neither filter."""
    shape = BloomFilter(64, 2)
    lines = [64 * i for i in range(256)]
    for key in lines:
        first, second = (position for position in range(64)
                         if family_mask(shape, key) >> position & 1)
        one = [line for line in lines if family_mask(shape, line)
               & family_mask(shape, key) == 1 << first]
        other = [line for line in lines if family_mask(shape, line)
                 & family_mask(shape, key) == 1 << second]
        if one and other:
            a, b = BloomFilter(64, 2), BloomFilter(64, 2)
            a.insert(one[0])
            b.insert(other[0])
            return a, b, key
    raise AssertionError("no such key")


def split_fit_without_a_hit():
    """Split filters of one shape and a key whose WrBF2 bit only ``a``
    has and whose WrBF1 bit only ``b`` has."""
    def split():
        return SplitWriteBloomFilter(crc_bits=64, index_bits=64, llc_sets=64)

    shape = split()
    crc = shape.crc_section
    key = 0
    same_index = next(64 * i for i in range(64, 4096, 64)
                      if crc._family.mask(64 * i) != crc._family.mask(key))
    same_crc = next(64 * i for i in range(1, 4096)
                    if i % 64 and crc._family.mask(64 * i)
                    == crc._family.mask(key))
    a, b = split(), split()
    a.insert(same_index)
    b.insert(same_crc)
    return a, b, key


def test_union_fit_without_a_single_filter_hit_runs_the_exact_loop():
    for a, b, key in (union_fit_without_a_hit(), split_fit_without_a_hit()):
        assert not a.might_contain(key) and not b.might_contain(key)
        keys = [64 * 255, key, 64 * 254]
        assert bloom._union_misses([(a, b)], keys, {}) is None
        filts = (a, b)
        assert_same(lambda: any_key_might_contain(filts, keys),
                    lambda: ref_any_key(filts, keys))
        assert_same(lambda: any_pair_might_contain(filts, keys),
                    lambda: ref_any_pair(filts, keys))
        groups = [(a,), (b, a)]
        assert_same(lambda: scan_groups(groups, keys),
                    lambda: ref_scan_groups(groups, keys))
        assert scan_groups(groups, keys) == ([], 6, 0)


def test_a_settled_call_probes_no_filter(monkeypatch):
    """No key fits the union: the counts alone answer the call, also
    for a key whose WrBF2 bit is set but whose WrBF1 bit is not."""
    plain, split = BloomFilter(1024, 2), SplitWriteBloomFilter()
    plain.insert(64)
    split.insert(128)
    wrbf2_only = next(128 + 64 * 4096 * i for i in range(1, 100)
                      if not split.might_contain(128 + 64 * 4096 * i))
    keys = [64 * i for i in range(3, 18)] + [wrbf2_only]
    assert bloom._union_misses([(plain, split), ()], keys, {}) == 3

    def no_probe(*args):
        raise AssertionError("probed a filter")

    monkeypatch.setattr(bloom, "any_might_contain", no_probe)
    monkeypatch.setattr(bloom, "_first_hit", no_probe)
    assert counted(lambda: any_key_might_contain((plain, split), keys)) == (
        False, 16 * 3, 0)
    assert counted(lambda: any_pair_might_contain((plain, split), keys)) == (
        False, 16 * 3, 0)
    assert counted(lambda: scan_groups([(plain, split), (plain,)], keys)) == (
        ([], 32, 0), 16 * 4, 0)


def test_two_hash_families_fall_back_to_the_exact_loop():
    """A key held by a 1-hash filter whose 2-hash mask misses the union
    of both filters' bits: only a per-filter test finds it."""
    other = BloomFilter(64, 2)
    other.insert(0)
    for key in (64 * i for i in range(1, 256)):
        held = BloomFilter(64, 1)
        held.insert(key)
        union = other._bitmask | held._bitmask
        if union & family_mask(other, key) != family_mask(other, key):
            break
    filts = (other, held)
    keys = [key]
    assert bloom._union_misses([filts], keys, {}) is None
    assert counted(lambda: any_key_might_contain(filts, keys)) == (True, 2, 0)
    assert counted(lambda: any_pair_might_contain(filts, keys)) == (
        True, 2, 0)
    assert scan_groups([filts], keys + keys) == ([0], 1, 0)
    empty = BloomFilter(64, 1)  # an empty filter's family never counts
    assert bloom._union_misses([(other, empty)], [64], {}) is not None


def test_two_split_shapes_fall_back_to_the_exact_loop():
    """A key held by a split filter whose WrBF2 bit or WrBF1 mask in the
    other filter's shape misses the union of both filters' arrays."""
    other = SplitWriteBloomFilter(crc_bits=128, index_bits=32, llc_sets=128)
    other.insert(0)
    for key in (64 * i for i in range(1, 4096)):
        held = SplitWriteBloomFilter(crc_bits=64, index_bits=64, llc_sets=64)
        held.insert(key)
        index = other._bitmask | held._bitmask
        crc = other.crc_section._bitmask | held.crc_section._bitmask
        mask = family_mask(other.crc_section, key)
        if not (index >> other._position(key) & 1 and crc & mask == mask):
            break
    filts = (other, held)
    keys = [64 * 9, key]
    assert bloom._union_misses([filts], keys, {}) is None
    assert_same(lambda: any_key_might_contain(filts, keys),
                lambda: ref_any_key(filts, keys))
    assert any_key_might_contain(filts, keys)


def test_empty_key_lists():
    plain, split = BloomFilter(64, 2), SplitWriteBloomFilter(
        crc_bits=64, index_bits=64, llc_sets=64)
    plain.insert(64)
    split.insert(64)
    assert counted(lambda: any_key_might_contain((plain, split), [])) == (
        False, 0, 0)
    assert counted(lambda: any_pair_might_contain((plain, split), [])) == (
        False, 0, 0)
    assert counted(lambda: scan_groups([(plain, split)], [])) == (
        ([], 0, 0), 0, 0)
    directory = Directory()
    assert directory.try_lock((0, 1), plain, split, [])
    assert counted(lambda: directory.any_read_blocked([], (0, 2))) == (
        False, 0, 0)
    assert counted(lambda: directory.any_write_blocked([], (0, 2))) == (
        False, 0, 0)


def test_a_key_inserted_after_locking_blocks():
    """The union is rebuilt from the live filters on every call."""
    directory = Directory()
    read_bf, write_bf = BloomFilter(1024, 2), BloomFilter(1024, 2)
    assert directory.try_lock((1, 1), read_bf, write_bf, [])
    lines = [64 * i for i in range(16)]
    assert not directory.any_read_blocked(lines, (0, 2))
    assert not directory.any_write_blocked(lines, (0, 2))
    read_bf.insert(lines[5])
    assert not directory.any_read_blocked(lines, (0, 2))
    assert directory.any_write_blocked(lines, (0, 2))
    write_bf.insert(lines[9])
    assert directory.any_read_blocked(lines, (0, 2))
    read_bf.clear()
    write_bf.clear()
    assert not directory.any_write_blocked(lines, (0, 2))


def test_whole_directory_lock_blocks_only_a_nonempty_list():
    directory = Directory(partial=False)
    read_bf, write_bf = BloomFilter(64), BloomFilter(64)
    assert directory.try_lock((0, 1), read_bf, write_bf, [])
    for check in (directory.any_read_blocked, directory.any_write_blocked):
        assert counted(lambda: check([64], (0, 2))) == (True, 0, 0)
        assert counted(lambda: check([], (0, 2))) == (False, 0, 0)
        assert counted(lambda: check([64], (0, 1))) == (False, 0, 0)


# -- bulk insert -------------------------------------------------------


def assert_same_filter(filt, twin):
    assert filt._bitmask == twin._bitmask
    assert filt.inserted_count == twin.inserted_count
    assert filt.distinct_inserted_count == twin.distinct_inserted_count
    assert list(filt.inserted_keys) == list(twin.inserted_keys)
    if isinstance(filt, SplitWriteBloomFilter):
        assert_same_filter(filt.crc_section, twin.crc_section)


@SETTINGS
@given(data=st.data())
def test_insert_all_matches_one_insert_per_key(data):
    bulk = data.draw(filters(keys=st.just([])), label="filter")
    if isinstance(bulk, SplitWriteBloomFilter):
        twin = SplitWriteBloomFilter(crc_bits=bulk.crc_section.bits,
                                     index_bits=bulk.index_bits,
                                     llc_sets=bulk.llc_sets)
    else:
        twin = BloomFilter(bulk.bits, bulk.hashes)
    before = data.draw(KEY_SETS, label="already inserted")
    insert_each(bulk, before)
    insert_each(twin, before)
    keys = data.draw(st.lists(LINES, max_size=12), label="keys")
    assert_same(lambda: bulk.insert_all(iter(keys)),
                lambda: insert_each(twin, keys))
    assert_same_filter(bulk, twin)


def test_split_filter_keeps_one_key_set():
    filt = SplitWriteBloomFilter(crc_bits=64, index_bits=64, llc_sets=64)
    filt.insert_all([64, 128, 64])
    filt.insert(192)
    assert filt._keys is filt.crc_section._keys
    assert list(filt.inserted_keys) == [64, 128, 192]
    assert filt.distinct_inserted_count == 3
    assert filt.inserted_count == filt.crc_section.inserted_count == 4
    filt.clear()
    assert filt.distinct_inserted_count == 0 and filt.is_empty
