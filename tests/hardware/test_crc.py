"""Tests for the hashing used by the Bloom filters, record placement
and the hash index."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.crc import (HashFamily, crc32c, crc32c_int, hash_family,
                                splitmix64, splitmix64_lanes)


def test_crc32c_known_vector():
    # Standard CRC-32C check value for "123456789".
    assert crc32c(b"123456789") == 0xE3069283


def test_crc32c_empty_is_zero():
    assert crc32c(b"") == 0


def test_seed_changes_output():
    assert crc32c(b"abc", seed=1) != crc32c(b"abc", seed=2)


def test_crc32c_int_matches_bytes_form():
    value = 0xDEADBEEF
    assert crc32c_int(value) == crc32c(value.to_bytes(8, "little"))


def test_hash_family_independent_functions():
    functions = hash_family(4, 1024)
    assert len(functions) == 4
    outputs = [fn(123456) for fn in functions]
    assert len(set(outputs)) > 1  # different seeds, different positions


def test_hash_family_range():
    functions = hash_family(2, 97)
    for value in [0, 1, 2 ** 63, 42]:
        for fn in functions:
            assert 0 <= fn(value) < 97


def test_hash_family_validates_args():
    with pytest.raises(ValueError):
        hash_family(0, 128)
    with pytest.raises(ValueError):
        hash_family(2, 1)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=200, deadline=None)
def test_crc32c_int_deterministic_and_32bit(value):
    first = crc32c_int(value)
    assert first == crc32c_int(value)
    assert 0 <= first < 2 ** 32


@given(st.lists(st.integers(min_value=0, max_value=2 ** 32), min_size=50,
                max_size=50, unique=True))
@settings(max_examples=20, deadline=None)
def test_crc_dispersion_no_catastrophic_collisions(values):
    """Hashing 50 distinct keys into 1024 buckets should not all collide."""
    fn = hash_family(1, 1024)[0]
    buckets = {fn(value) for value in values}
    assert len(buckets) >= 25


@given(st.lists(st.integers()))
@example([])
@example([7])
@example([0])
@example([2 ** 64 - 1])
@example([-1, -(2 ** 64), -(2 ** 70) + 3])
@example([2 ** 64, 2 ** 64 + 1, 2 ** 200])
# Full lanes next to empty ones: a carry or a shifted-in bit would show.
@example([2 ** 64 - 1, 0, 2 ** 64 - 1, 1, 2 ** 63])
@settings(max_examples=300, deadline=None)
def test_splitmix64_lanes_equals_the_scalar(values):
    assert splitmix64_lanes(values) == [splitmix64(value) for value in values]


def test_splitmix64_lanes_on_a_large_batch():
    values = (list(range(-3000, 3000))
              + list(range(2 ** 64 - 3000, 2 ** 64 + 3000))
              + [2 ** 64 - 1 - key * 0x9E3779B97F4A7C15 % 2 ** 64
                 for key in range(3000)])
    assert splitmix64_lanes(values) == [splitmix64(value) for value in values]
    assert splitmix64_lanes(range(5000)) == list(map(splitmix64, range(5000)))


def scalar_masks(count, modulus, keys):
    """Each key's mask from a family that hashes one key at a time."""
    family = HashFamily(count, modulus)
    return {key: family.mask(key) for key in keys}


@given(keys=st.lists(st.one_of(st.integers(0, 300),
                               st.integers(-2 ** 70, 2 ** 70))),
       count=st.integers(1, 4),
       modulus=st.sampled_from([2, 3, 97, 512, 1000, 1024, 4093]))
@example(keys=[5, 5, 5], count=2, modulus=1000)
@example(keys=[-1, -(2 ** 64), 2 ** 64, 2 ** 64 + 1, 2 ** 200], count=3,
         modulus=97)
@settings(max_examples=200, deadline=None)
def test_memoize_equals_the_scalar_mask(keys, count, modulus):
    """Negative keys, keys of 2**64 or more, duplicates, 1-4 hashes and
    moduli that are not powers of two."""
    family = HashFamily(count, modulus)
    warm = keys[::3]
    family.memoize(warm)  # a lone key takes the scalar path
    family.memoize(keys)
    assert family._masks == scalar_masks(count, modulus, keys)


def test_memoize_batches_only_unmemoized_keys(monkeypatch):
    family = HashFamily(2, 1000)
    family.mask(7)
    calls = []
    real = splitmix64_lanes

    def counting(values):
        calls.append(list(values))
        return real(values)

    monkeypatch.setattr("repro.hardware.crc.splitmix64_lanes", counting)
    family.memoize([7, 8, 9, 8])
    seeds = family._seeds
    assert calls == [[key ^ seed for seed in seeds for key in (8, 9, 8)]]
    family.memoize([7, 8, 9])
    family.memoize([7, 10])  # one new key: the scalar path
    assert len(calls) == 1
    assert family._masks == scalar_masks(2, 1000, [7, 8, 9, 10])


def test_memoize_keeps_the_cache_under_its_limit(monkeypatch):
    monkeypatch.setattr("repro.hardware.crc._CACHE_LIMIT", 8)
    family = HashFamily(2, 1000)
    family.memoize(range(5))
    assert len(family._masks) == 5
    family.memoize(range(3, 9))  # 5 + 4 new keys > 8: dropped first
    assert list(family._masks) == [5, 6, 7, 8]
    family.memoize(range(9, 13))
    assert len(family._masks) == 8
    assert family._masks == scalar_masks(2, 1000, range(5, 13))
