"""Tests for the per-core CPU clock that serializes multiplexed slots."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import CoreClock, Node
from repro.config import ClusterConfig
from repro.sim import Engine


def _clock(now=0.0, free_at=0.0):
    """A core clock on a stand-in engine whose clock reads ``now``."""
    core = CoreClock(SimpleNamespace(now=now))
    core.free_at = free_at
    return core


def test_two_slots_sharing_one_core_serialize():
    engine = Engine()
    node = Node(0, ClusterConfig(nodes=1, multiplexing=2), engine=engine)
    core = node.core_for_slot(0)
    assert node.core_for_slot(1) is core
    done = {}

    def slot(name, work_ns):
        yield core.reserve(work_ns)
        done[name] = engine.now

    engine.process(slot("first", 100.0))
    engine.process(slot("second", 50.0))
    engine.run()
    # The second slot's work waits for the first's: 100 + 50.
    assert done == {"first": 100.0, "second": 150.0}
    assert core.free_at == 150.0


def test_charge_on_an_idle_core_starts_now():
    core = _clock(now=500.0, free_at=200.0)
    assert core.reserve(30.0) == 30.0
    assert core.free_at == 530.0


def test_delay_is_queueing_plus_work():
    core = _clock(now=100.0, free_at=340.0)
    # 240 ns behind the booked work, then 60 ns of its own.
    assert core.reserve(60.0) == 240.0 + 60.0
    assert core.free_at == 400.0


@pytest.mark.parametrize("ns", [-1.0, -1e-9, float("-inf"), float("nan")],
                         ids=["negative", "tiny-negative", "-inf", "nan"])
def test_invalid_charge_raises_and_books_nothing(ns):
    core = _clock(now=10.0, free_at=25.0)
    with pytest.raises(ValueError, match=f"got {ns}"):
        core.reserve(ns)
    assert core.free_at == 25.0


_TIMES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@given(now=_TIMES, free_at=_TIMES, ns=_TIMES, tie=st.booleans())
@settings(max_examples=300, deadline=None)
def test_reserve_books_after_max_of_now_and_free_at(now, free_at, ns, tie):
    """The booking rule, for any finite non-negative inputs: the work
    starts at ``max(now, free_at)``, and the delay runs from now."""
    if tie:
        free_at = now
    core = _clock(now=now, free_at=free_at)
    expected_end = max(now, free_at) + ns
    assert core.reserve(ns) == expected_end - now
    assert core.free_at == expected_end
