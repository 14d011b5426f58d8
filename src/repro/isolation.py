"""In-process run isolation: the audit of process-wide state.

One ``repro sweep`` worker process executes many experiment runs
back-to-back, so anything memoized at module or class level is shared
between runs.  This module is the closed inventory of that state and
the contract each entry must honor:

* ``repro.hardware.crc`` — the shared :class:`~repro.hardware.crc.HashFamily`
  mask caches (:func:`~repro.hardware.crc.shared_hash_family`).  A mask
  is a pure function of ``(hash count, modulus, key)``, so warmth can
  change wall-clock time only, never a simulated result.  **Safe to
  share; kept warm across runs.**
* ``repro.hardware.bloom`` — :class:`~repro.hardware.bloom.BloomFilter`'s
  class-level ``total_read_ops``/``total_write_ops`` energy counters.
  These accumulate forever, so any consumer reading the raw totals sees
  every previous run's accesses.  **Not safe to read raw**:
  :func:`~repro.runner.run_experiment` snapshots them and reports
  per-run deltas (``ExperimentResult.bloom_read_ops``/``bloom_write_ops``),
  which are what the energy report consumes.
* ``repro.hardware.bloom`` — the process-wide WrBF2 position memos
  (:data:`~repro.hardware.bloom._INDEX_POSITION_CACHES`): ``key ->
  (key // line_bytes) % llc_sets % index_bits``, keyed by filter shape.
  A pure value cache.  **Safe to share; kept warm across runs.**
* ``repro.sim.random`` — the process-wide zipfian scramble memo
  (:data:`~repro.sim.random._SCRAMBLE_CACHES`): ``rank ->
  fnv1a_64(rank) % item_count``, keyed by ``item_count``.  A pure value
  cache, so warmth changes wall-clock time only.  (The per-generator
  rank *tapes* are instance state constructed fresh per run and feed
  off the generator's own private RNG, so they never cross runs.)
  **Safe to share; kept warm across runs.**
* The CRC lookup table (``repro.hardware.crc._TABLE``) and similar
  computed constants — immutable after import, trivially safe.
* :mod:`gc` — the cyclic garbage collector.  Building a run allocates
  many long-lived objects and no garbage cycles, so
  :func:`~repro.runner.run_experiment` keeps the collector **paused
  while it builds** the cluster, protocol, population and client
  drivers, **freezes the built model** (:func:`gc.freeze`) before the
  simulation starts so the simulation's collections never rescan it,
  and **restores both on every exit**, return or raise: the caller's
  ``gc.isenabled()`` and a freeze count of zero (:func:`gc.unfreeze`).
  A caller that froze objects itself keeps them frozen: the run then
  neither freezes nor unfreezes.  A finished model is cyclic garbage
  that only a full collection frees, and the next run's freeze would
  keep it, so a run collects fully before it builds when an earlier run
  unfroze a model and no full collection has run since
  (``repro.runner._full_collections_at_unfreeze``); the first run in a
  process, and any run whose caller paused the collector, makes no
  collection of its own.  Collection never changes a simulated result;
  the collector's state is reported by :func:`process_state_report`.

Everything else an experiment touches (engine, cluster, protocol,
metrics, workloads, fault injectors, recovery managers) is constructed
fresh inside :func:`~repro.runner.run_experiment` per call.

``tests/test_isolation.py`` pins the contract: running A then B in one
process must be bit-identical to running B in a fresh process.  Any new
module-level cache must either be a pure value cache (document it here)
or be registered in :func:`reset_process_caches`.
"""

from __future__ import annotations

import gc
from typing import Dict


def process_state_report() -> Dict[str, object]:
    """Sizes of every known process-wide cache/counter, and the cyclic
    collector's state, for the audit tests and for memory diagnostics
    of long-lived sweep workers."""
    from repro.hardware.bloom import BloomFilter, split_index_stats
    from repro.hardware.crc import shared_family_stats
    from repro.sim.random import zipfian_scramble_stats

    return {
        "gc_enabled": gc.isenabled(),
        "gc_frozen_objects": gc.get_freeze_count(),
        "hash_family_masks": shared_family_stats(),
        "bloom_total_read_ops": BloomFilter.total_read_ops,
        "bloom_total_write_ops": BloomFilter.total_write_ops,
        "split_index_positions": split_index_stats(),
        "zipfian_scramble_keys": zipfian_scramble_stats(),
    }


def reset_process_caches() -> None:
    """Restore every process-wide cache/counter to import-time state.

    Run-to-run isolation does *not* require calling this (see the
    module docstring); it exists so tests can prove that claim — a run
    after ``reset_process_caches()`` must equal the same run on a warm
    process — and so a long-lived worker can bound mask-cache memory.
    """
    from repro.hardware.bloom import BloomFilter, clear_split_index_caches
    from repro.hardware.crc import clear_shared_families
    from repro.sim.random import clear_zipfian_scramble_caches

    clear_shared_families()
    BloomFilter.reset_stats()
    clear_split_index_caches()
    clear_zipfian_scramble_caches()
