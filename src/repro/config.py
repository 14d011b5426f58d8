"""Architecture parameters (paper Table III) and the software cost model.

Everything that carries a latency, a size, or an energy number lives
here, so experiments can vary one knob (network latency, node count,
Bloom-filter sizing, ...) without touching protocol code.

Units: time in **nanoseconds**, sizes in **bytes** or **bits** (named
explicitly), frequencies in GHz.  The default values are Table III of
the paper: 2 GHz 6-issue cores, 2/12/40-cycle L1/L2/LLC round trips,
100 ns DRAM, 2 µs NIC-to-NIC round trips at 200 Gb/s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.slo import SLOParams

#: Cache-line size used throughout (bytes).
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core (Table III, "Core" rows)."""

    frequency_ghz: float = 2.0
    issue_width: int = 6
    rob_entries: int = 192
    load_store_queue_entries: int = 92

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns


@dataclass(frozen=True)
class CacheParams:
    """Three-level cache hierarchy (Table III cache rows).

    ``llc_hit_fraction`` is the expected LLC hit rate used by the
    expected-value timing model for local data accesses; the structural
    LLC model (sets/ways, WrTX_ID tags) lives in
    :mod:`repro.hardware.cache` and is exercised for the speculative
    eviction experiment.
    """

    l1_kb: int = 64
    l1_ways: int = 8
    l1_rt_cycles: int = 2
    l2_kb: int = 512
    l2_ways: int = 8
    l2_rt_cycles: int = 12
    llc_mb_per_core: int = 4
    llc_ways: int = 16
    llc_rt_cycles: int = 40
    line_bytes: int = CACHE_LINE_BYTES
    llc_hit_fraction: float = 0.9

    def llc_sets(self, cores: int) -> int:
        """Number of LLC sets for a node with ``cores`` cores."""
        total_lines = self.llc_mb_per_core * cores * 1024 * 1024 // self.line_bytes
        return max(1, total_lines // self.llc_ways)


@dataclass(frozen=True)
class DramParams:
    """Per-node main memory (Table III DRAM rows)."""

    capacity_gb: int = 64
    channels: int = 4
    banks: int = 8
    rt_ns: float = 100.0


@dataclass(frozen=True)
class NetworkParams:
    """RDMA fabric and NIC (Table III network rows)."""

    rt_latency_ns: float = 2000.0
    bandwidth_gbps: float = 200.0
    queue_pairs: int = 400
    #: NIC-side handling of a HADES message beyond the wire RT (BF inserts,
    #: partial-lock attempts).  Small: BFs are checked in parallel.
    nic_processing_ns: float = 50.0

    @property
    def one_way_latency_ns(self) -> float:
        return self.rt_latency_ns / 2.0

    @property
    def bytes_per_ns(self) -> float:
        """Usable bandwidth in bytes per nanosecond."""
        return self.bandwidth_gbps / 8.0

    def transfer_ns(self, size_bytes: int) -> float:
        """Serialization delay for a payload of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        return size_bytes / self.bytes_per_ns


@dataclass(frozen=True)
class BloomParams:
    """Bloom filter sizing (Table III BF rows).

    The core write BF is the split design of Fig. 8: a 512-bit CRC-hashed
    section (WrBF1) plus a 4096-bit LLC-index-hashed section (WrBF2).
    Hash counts are chosen so the analytic false-positive rates land on
    the paper's Table IV (k=2 for the plain 1 Kbit filters, k=1 per
    section of the split filter).
    """

    core_read_bits: int = 1024
    core_read_hashes: int = 2
    core_write_crc_bits: int = 512
    core_write_crc_hashes: int = 1
    core_write_index_bits: int = 4096
    nic_read_bits: int = 1024
    nic_write_bits: int = 1024
    nic_hashes: int = 2
    crc_latency_cycles: int = 2
    #: Energy/leakage from Table III, for the cost calculator.
    read_energy_pj: float = 12.8
    write_energy_pj: float = 12.7
    leakage_mw: float = 1.7

    @property
    def core_pair_bytes(self) -> int:
        """Storage of one (read, write) core BF pair: 0.7 KB in the paper."""
        bits = self.core_read_bits + self.core_write_crc_bits + self.core_write_index_bits
        return bits // 8

    @property
    def nic_pair_bytes(self) -> int:
        """Storage of one (read, write) NIC BF pair: 0.25 KB in the paper."""
        return (self.nic_read_bits + self.nic_write_bits) // 8


@dataclass(frozen=True)
class HardwareLatencies:
    """Latencies of the new HADES hardware primitives (Table III)."""

    find_llc_tags_cycles: int = 100  # paper: 80-120 cycles typical
    bloom_op_cycles: int = 3  # CRC (2) + array access (1)
    partial_lock_cycles: int = 30  # copy BFs into a Locking Buffer
    wrtx_tag_check_cycles: int = 0  # done in parallel with the LLC tag check
    #: Locking Buffers per directory (Fig. 7 shows several).  Must cover
    #: the transactions that can commit against one node at a time:
    #: local ones plus remote committers from every other node.
    locking_buffers_per_node: int = 64


@dataclass(frozen=True)
class CostModel:
    """Per-operation software costs of the Baseline (SW-Impl), in cycles.

    These model the instruction footprint of FaRM-style bookkeeping and
    are calibrated so the Section III breakdown lands in the paper's
    59–71 % overhead band (see ``benchmarks/test_fig03_overheads.py``).
    Copies move ``copy_bytes_per_cycle`` bytes per cycle.
    """

    copy_bytes_per_cycle: float = 2.0
    #: Bookkeeping to append one entry (address, version, node) to the
    #: Read Set, on top of the data copy.
    read_set_insert_cycles: float = 1200.0
    #: Bookkeeping to append one entry to the Write Set (two copies are
    #: charged separately: into the set at execution, out at commit).
    write_set_insert_cycles: float = 1000.0
    #: Check that all cache lines of a record carry the same version.
    read_atomicity_per_line_cycles: float = 350.0
    #: Bump the version field of a record at commit.
    update_version_cycles: float = 250.0
    #: Compare a re-read version against the Read Set entry.
    version_compare_cycles: float = 200.0
    #: Local lock/unlock via CAS, on top of the cache access.
    cas_cycles: float = 150.0
    #: Assemble/decode one batched validation or lock message.
    batch_message_cycles: float = 500.0
    #: Non-overhead application work per client request (hash probe,
    #: predicate evaluation...): "Other Time" in Fig. 3.
    request_work_cycles: float = 1300.0
    #: Fixed per-transaction begin/end software cost.
    txn_setup_cycles: float = 300.0


@dataclass(frozen=True)
class LivelockParams:
    """FaRM-style livelock avoidance (Section VI)."""

    #: After this many consecutive squashes, fall back to pessimistic
    #: locking (grab every permission up front).
    squash_threshold: int = 5
    backoff_base_ns: float = 500.0
    backoff_cap_ns: float = 16000.0


@dataclass(frozen=True)
class NicStallWindow:
    """One NIC stall: messages touching ``node`` in [start, end) are
    held until the window ends (models a paused/overloaded SmartNIC)."""

    node: int
    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"negative node id: {self.node}")
        if not self.start_ns < self.end_ns:
            raise ValueError(
                f"empty stall window: [{self.start_ns}, {self.end_ns})")


@dataclass(frozen=True)
class NodeCrashWindow:
    """One crash/restart: ``node`` is down in [start, end).

    At the fabric, unreliable messages to or from the node are dropped;
    reliable messages *to* it (modeling RDMA RC retransmission at the
    live sender) are held until the restart at ``end_ns``, while sends
    originating *inside* the window are dropped — a crashed sender
    cannot retransmit.  Durable state (memory, replica stores) survives
    the crash.  Volatile state (directory Locking Buffers, WrTX_ID
    tags, NIC/core Bloom filters, in-flight attempts) survives only
    when recovery is disabled; with :class:`RecoveryParams` enabled it
    is wiped at ``start_ns`` and the cluster runs the lease/epoch/scrub
    recovery protocol of docs/RECOVERY.md.
    """

    node: int
    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"negative node id: {self.node}")
        if not self.start_ns < self.end_ns:
            raise ValueError(
                f"empty crash window: [{self.start_ns}, {self.end_ns})")


@dataclass(frozen=True)
class RecoveryParams:
    """Lease-based crash recovery (docs/RECOVERY.md).

    Disabled by default: crash windows then behave as pure partitions
    (the PR-2 model).  With ``enabled=True`` every node runs a lease
    manager process that heartbeats its peers; a peer whose lease
    expires is declared suspect, the configuration coordinator bumps
    the cluster epoch, survivors scrub the dead node's locks and
    temporary copies, and (for the replicated protocol) accesses homed
    on the dead node fail over to its ``(h + k) mod N`` replica.
    """

    enabled: bool = False
    #: Interval between heartbeats a node sends to each peer.
    heartbeat_interval_ns: float = 2000.0
    #: Lease duration: a peer is suspect when no heartbeat arrived for
    #: this long.  Must comfortably exceed the heartbeat interval plus
    #: one-way latency plus worst-case jitter.
    lease_ns: float = 10000.0
    #: Delay after a restarted node rejoins before it refreshes its
    #: replica store from the (possibly promoted) home copies.
    rejoin_sync_delay_ns: float = 8000.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ns <= 0.0:
            raise ValueError(
                f"heartbeat interval must be positive: "
                f"{self.heartbeat_interval_ns}")
        if self.lease_ns <= self.heartbeat_interval_ns:
            raise ValueError(
                f"lease ({self.lease_ns} ns) must exceed the heartbeat "
                f"interval ({self.heartbeat_interval_ns} ns)")
        if self.rejoin_sync_delay_ns < 0.0:
            raise ValueError(
                f"negative rejoin sync delay: {self.rejoin_sync_delay_ns}")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault-injection schedule (see docs/FAULTS.md).

    Consumed by :class:`~repro.faults.injector.FaultInjector`; every
    probabilistic decision is drawn from one deterministic stream seeded
    with :attr:`seed`, so a (plan, workload, seed) triple replays the
    exact same faults.
    """

    #: Seed of the injector's private random stream.
    seed: int = 0
    #: Probability an *unreliable* message is silently dropped.
    drop_probability: float = 0.0
    #: Uniform extra delivery delay in [0, jitter) ns per message.
    delay_jitter_ns: float = 0.0
    #: Probability one replica ``persist_temporary`` reports failure.
    replica_persist_fail_rate: float = 0.0
    #: NIC stall windows (messages held until the window ends).
    nic_stalls: Tuple[NicStallWindow, ...] = ()
    #: Node crash/restart windows (partition-style connectivity loss).
    crashes: Tuple[NodeCrashWindow, ...] = ()
    #: Request timeout override; None derives one from the network RT.
    request_timeout_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1): {self.drop_probability}")
        if self.delay_jitter_ns < 0.0:
            raise ValueError(f"negative jitter: {self.delay_jitter_ns}")
        if not 0.0 <= self.replica_persist_fail_rate <= 1.0:
            raise ValueError(f"persist fail rate must be in [0, 1]: "
                             f"{self.replica_persist_fail_rate}")
        if (self.request_timeout_ns is not None
                and self.request_timeout_ns <= 0.0):
            raise ValueError(
                f"timeout must be positive: {self.request_timeout_ns}")

    @property
    def enabled(self) -> bool:
        """True when any fault source is active."""
        return bool(self.drop_probability or self.delay_jitter_ns
                    or self.replica_persist_fail_rate
                    or self.nic_stalls or self.crashes)

    def effective_timeout_ns(self, network: "NetworkParams") -> float:
        """Request timeout to arm on the reply helper.

        Explicit :attr:`request_timeout_ns` wins; otherwise long enough
        that a jittered-but-delivered round trip never times out.
        """
        if self.request_timeout_ns is not None:
            return self.request_timeout_ns
        return 4.0 * network.rt_latency_ns + 4.0 * self.delay_jitter_ns

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """Build a plan from a ``--faults`` CLI spec string.

        Comma-separated ``key=value`` pairs: ``drop`` (probability),
        ``jitter`` (ns), ``persist`` (replica persist failure rate),
        ``timeout`` (ns), ``seed`` (int), and repeatable
        ``stall=NODE:START:END`` / ``crash=NODE:START:END`` windows
        (several windows join with ``+``).  ``seed`` passed as an
        argument (the ``--fault-seed`` flag) overrides a ``seed`` key.
        Example: ``drop=0.02,jitter=300,persist=0.05,stall=1:10000:30000``.
        """
        kwargs: Dict[str, object] = {}
        stalls = []
        crashes = []
        spec = spec.strip()
        if spec and spec.lower() not in ("none", "off"):
            for part in spec.split(","):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ValueError(f"bad fault spec item {part!r} "
                                     "(expected key=value)")
                key, value = part.split("=", 1)
                key = key.strip().lower()
                value = value.strip()
                if key == "drop":
                    kwargs["drop_probability"] = float(value)
                elif key == "jitter":
                    kwargs["delay_jitter_ns"] = float(value)
                elif key in ("persist", "persist_fail"):
                    kwargs["replica_persist_fail_rate"] = float(value)
                elif key == "timeout":
                    kwargs["request_timeout_ns"] = float(value)
                elif key == "seed":
                    kwargs["seed"] = int(value)
                elif key in ("stall", "crash"):
                    for window in value.split("+"):
                        fields = window.split(":")
                        if len(fields) != 3:
                            raise ValueError(
                                f"bad {key} window {window!r} "
                                "(expected NODE:START:END)")
                        node, start, end = fields
                        target = stalls if key == "stall" else crashes
                        wcls = (NicStallWindow if key == "stall"
                                else NodeCrashWindow)
                        target.append(wcls(node=int(node),
                                           start_ns=float(start),
                                           end_ns=float(end)))
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
        if stalls:
            kwargs["nic_stalls"] = tuple(stalls)
        if crashes:
            kwargs["crashes"] = tuple(crashes)
        if seed is not None:
            kwargs["seed"] = seed
        return cls(**kwargs)


@dataclass(frozen=True)
class LoadParams:
    """Open-loop arrival layer over a simulated user population.

    Disabled by default: experiments stay closed-loop (each protocol
    slot issues its next transaction when the previous finishes) and
    the runner's behaviour is bit-identical to a build without this
    layer.  With ``enabled=True`` the runner replaces the closed-loop
    drivers with per-node arrival processes feeding bounded admission
    queues that the protocol slots drain — see docs/LOAD.md.

    Rates are offered transactions per second across the whole cluster;
    each node's arrival process runs at ``rate_tps / nodes``.
    """

    enabled: bool = False
    #: Arrival process: ``poisson`` (memoryless), ``bursty`` (on/off
    #: modulated Poisson), or ``diurnal`` (sinusoidally ramped Poisson).
    arrival: str = "poisson"
    #: Offered load across the cluster, transactions per second.
    rate_tps: float = 1_000_000.0
    #: Bounded admission queue capacity per node.
    queue_capacity: int = 64
    #: Shedding policy when the queue is full: ``fifo`` (drop-tail:
    #: reject the newcomer), ``lifo`` (serve newest first, evict the
    #: oldest waiter), or ``deadline`` (earliest-deadline-first service,
    #: evict the job with the least-urgent deadline).
    shed_policy: str = "fifo"
    #: Queued jobs older than this are abandoned (``queue_deadline``
    #: timeouts); 0 disables expiry.
    queue_deadline_ns: float = 200_000.0
    #: Backpressure latch (fraction of capacity): at or above ``high``
    #: the admission door refuses *all* newcomers until the queue drains
    #: to ``low`` (hysteresis).  Set ``high`` > 1 to disable.
    backpressure_high: float = 0.75
    backpressure_low: float = 0.5
    #: Graceful-degradation watermarks (fraction of capacity): at or
    #: above ``high`` the overload controller enters degraded mode and
    #: sheds sheddable (read-only / low-priority) jobs at the door until
    #: the queue drains to ``low``.  Set ``high`` > 1 to disable.
    degrade_high: float = 0.5
    degrade_low: float = 0.25
    #: Fraction of jobs tagged low-priority (sheddable regardless of
    #: their read/write mix) by a deterministic per-arrival draw.
    low_priority_fraction: float = 0.0
    #: Whether read-only jobs count as sheddable in degraded mode.
    shed_read_only: bool = True
    #: Retry budget: a per-node token bucket refilled at
    #: ``retry_budget_fraction x`` the node's arrival rate; every
    #: protocol retry spends one token and a dry bucket abandons the
    #: transaction (``retry_budget_exhausted``).  0 disables the bucket.
    retry_budget_fraction: float = 0.1
    #: Token bucket burst capacity.
    retry_burst: float = 16.0
    #: Hard cap on attempts per admitted job; 0 means unlimited.
    max_attempts: int = 16
    #: ``bursty`` process: ON window length, OFF window length, and the
    #: ON-rate multiplier (OFF rate is derived so the long-run mean
    #: stays ``rate_tps``).
    burst_on_ns: float = 50_000.0
    burst_off_ns: float = 50_000.0
    burst_factor: float = 1.8
    #: ``diurnal`` process: sinusoid period and the trough rate as a
    #: fraction of the peak (mean stays ``rate_tps``).
    diurnal_period_ns: float = 1_000_000.0
    diurnal_min_fraction: float = 0.2

    ARRIVALS = ("poisson", "bursty", "diurnal")
    POLICIES = ("fifo", "lifo", "deadline")

    def __post_init__(self) -> None:
        if self.arrival not in self.ARRIVALS:
            raise ValueError(f"unknown arrival process {self.arrival!r}; "
                             f"pick from {self.ARRIVALS}")
        if self.shed_policy not in self.POLICIES:
            raise ValueError(f"unknown shed policy {self.shed_policy!r}; "
                             f"pick from {self.POLICIES}")
        if self.rate_tps <= 0.0:
            raise ValueError(f"arrival rate must be positive: {self.rate_tps}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1: {self.queue_capacity}")
        if self.queue_deadline_ns < 0.0:
            raise ValueError(
                f"negative queue deadline: {self.queue_deadline_ns}")
        for name in ("backpressure", "degrade"):
            high = getattr(self, f"{name}_high")
            low = getattr(self, f"{name}_low")
            if low < 0.0 or high <= 0.0 or low > high:
                raise ValueError(
                    f"bad {name} watermarks: low={low}, high={high}")
        if not 0.0 <= self.low_priority_fraction <= 1.0:
            raise ValueError(f"low-priority fraction must be in [0, 1]: "
                             f"{self.low_priority_fraction}")
        if self.retry_budget_fraction < 0.0:
            raise ValueError(
                f"negative retry budget: {self.retry_budget_fraction}")
        if self.retry_burst < 1.0:
            raise ValueError(f"retry burst must be >= 1: {self.retry_burst}")
        if self.max_attempts < 0:
            raise ValueError(f"negative max attempts: {self.max_attempts}")
        if self.burst_on_ns <= 0.0 or self.burst_off_ns < 0.0:
            raise ValueError(
                f"bad burst windows: on={self.burst_on_ns}, "
                f"off={self.burst_off_ns}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst factor must be >= 1: {self.burst_factor}")
        if self.diurnal_period_ns <= 0.0:
            raise ValueError(
                f"diurnal period must be positive: {self.diurnal_period_ns}")
        if not 0.0 < self.diurnal_min_fraction <= 1.0:
            raise ValueError(f"diurnal min fraction must be in (0, 1]: "
                             f"{self.diurnal_min_fraction}")

    def node_rate_per_ns(self, nodes: int) -> float:
        """Per-node arrival rate in jobs per nanosecond."""
        return self.rate_tps / 1e9 / nodes

    @classmethod
    def parse(cls, spec: str) -> "LoadParams":
        """Build params from a ``--load`` CLI spec string.

        Comma-separated ``key=value`` pairs; ``rate`` (txn/s) alone is
        enough to enable the layer.  Keys: ``rate``, ``arrival``,
        ``policy``, ``capacity``, ``deadline`` (ns), ``lowprio``,
        ``budget`` (retry budget fraction), ``attempts``.  Example:
        ``rate=2e6,arrival=bursty,policy=deadline,capacity=128``.
        """
        kwargs: Dict[str, object] = {"enabled": True}
        spec = spec.strip()
        if not spec or spec.lower() in ("none", "off"):
            return cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad load spec item {part!r} "
                                 "(expected key=value)")
            key, value = part.split("=", 1)
            key = key.strip().lower()
            value = value.strip()
            if key == "rate":
                kwargs["rate_tps"] = float(value)
            elif key == "arrival":
                kwargs["arrival"] = value
            elif key == "policy":
                kwargs["shed_policy"] = value
            elif key == "capacity":
                kwargs["queue_capacity"] = int(value)
            elif key == "deadline":
                kwargs["queue_deadline_ns"] = float(value)
            elif key == "lowprio":
                kwargs["low_priority_fraction"] = float(value)
            elif key == "budget":
                kwargs["retry_budget_fraction"] = float(value)
            elif key == "attempts":
                kwargs["max_attempts"] = int(value)
            else:
                raise ValueError(f"unknown load spec key {key!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class ClusterConfig:
    """One experiment's full machine description.

    Default cluster: N=5 nodes, C=5 cores per node, m=2 multiplexed
    transactions per core (Section VII).  The scalability experiments use
    (N=10, C=5), (N=5, C=10) and (N=8, C=25).
    """

    nodes: int = 5
    cores_per_node: int = 5
    multiplexing: int = 2
    core: CoreParams = field(default_factory=CoreParams)
    cache: CacheParams = field(default_factory=CacheParams)
    dram: DramParams = field(default_factory=DramParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    bloom: BloomParams = field(default_factory=BloomParams)
    hw: HardwareLatencies = field(default_factory=HardwareLatencies)
    cost: CostModel = field(default_factory=CostModel)
    livelock: LivelockParams = field(default_factory=LivelockParams)
    #: Lease-based crash recovery; disabled by default (crash windows
    #: stay partition-style without it).  See docs/RECOVERY.md.
    recovery: RecoveryParams = field(default_factory=RecoveryParams)
    #: Latency objectives evaluated against committed-transaction
    #: latency after every run (``SLOParams.parse("p99<20us")``); empty
    #: (no objectives) by default.  See docs/OBSERVABILITY.md.
    slo: SLOParams = field(default_factory=SLOParams)
    #: Open-loop arrival layer (admission queues, shedding, retry
    #: budgets); disabled by default — closed-loop behaviour is then
    #: bit-identical to a build without the layer.  See docs/LOAD.md.
    load: LoadParams = field(default_factory=LoadParams)
    #: Average number of distinct remote nodes per transaction (D in
    #: Section VI) — used only by the hardware cost calculator.
    remote_nodes_per_txn: float = 4.0
    #: Ablation knob: False degrades the Fig. 7 partial directory lock
    #: to a single whole-directory lock (at most one committer per node,
    #: every access stalled during a commit).
    partial_locking: bool = True

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need at least one node: {self.nodes}")
        if self.cores_per_node < 1:
            raise ValueError(f"need at least one core: {self.cores_per_node}")
        if self.multiplexing < 1:
            raise ValueError(f"multiplexing must be >= 1: {self.multiplexing}")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def transactions_per_node(self) -> int:
        """Maximum concurrent transactions a node can host (m × C)."""
        return self.multiplexing * self.cores_per_node

    # -- derived latency helpers used by the protocols ----------------

    def cycles_to_ns(self, cycles: float) -> float:
        return self.core.cycles_to_ns(cycles)

    def local_line_access_ns(self) -> float:
        """Expected latency of reading/writing one local cache line.

        Expected-value mix of an LLC hit and a DRAM access; the
        structural LLC model handles the speculative-eviction behaviour
        separately.
        """
        llc_ns = self.cycles_to_ns(self.cache.llc_rt_cycles)
        dram_ns = llc_ns + self.dram.rt_ns
        hit = self.cache.llc_hit_fraction
        return hit * llc_ns + (1.0 - hit) * dram_ns

    def l1_access_ns(self) -> float:
        return self.cycles_to_ns(self.cache.l1_rt_cycles)

    def copy_ns(self, size_bytes: int) -> float:
        """Software memory-copy cost (non-zero-copy reads, set buffering)."""
        return self.cycles_to_ns(size_bytes / self.cost.copy_bytes_per_cycle)

    def replace(self, **changes) -> "ClusterConfig":
        """A copy of this config with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_network(self, **changes) -> "ClusterConfig":
        return self.replace(network=dataclasses.replace(self.network, **changes))

    def with_cost(self, **changes) -> "ClusterConfig":
        return self.replace(cost=dataclasses.replace(self.cost, **changes))

    def with_bloom(self, **changes) -> "ClusterConfig":
        return self.replace(bloom=dataclasses.replace(self.bloom, **changes))


#: Named cluster shapes used by the evaluation (Section VII + VIII-E).
CLUSTER_SHAPES: Dict[str, Tuple[int, int]] = {
    "default": (5, 5),
    "scale_n10": (10, 5),
    "scale_c10": (5, 10),
    "scale_200": (8, 25),
}


def make_cluster_config(shape: str = "default", **overrides) -> ClusterConfig:
    """Build a :class:`ClusterConfig` for one of the paper's cluster shapes."""
    if shape not in CLUSTER_SHAPES:
        raise KeyError(f"unknown cluster shape {shape!r}; pick from {sorted(CLUSTER_SHAPES)}")
    nodes, cores = CLUSTER_SHAPES[shape]
    return ClusterConfig(nodes=nodes, cores_per_node=cores, **overrides)
