"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` replaces public entry points of each simulator
layer with thin wrappers that record spans on a stack, and puts every
original back on :meth:`LayerTracer.uninstall`.  Nothing under ``src/``
knows about it.  Spans are aggregated in memory per ``(layer, name)``
key -- count, inclusive time and self time -- and read out once at the
end of the run.

A span's self time is its duration minus the time covered by the spans
nested inside it, so summing self time per layer splits the traced
run's wall clock between the layers without double counting.

Engine callbacks are the one place the wrappers change what is stored:
``schedule``/``post`` store a trampoline with the real callback as its
first argument, so each dispatched event becomes a span attributed to
the layer whose module defined the callback.  The trampoline consumes
no sequence numbers and schedules nothing, so dispatch order, and with
it every simulated result, is unchanged.
"""

from __future__ import annotations

import functools
import re
import time
from collections import Counter
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

SpanKey = Tuple[str, str]

#: Module prefix -> layer, first match wins.
_MODULE_LAYERS = (
    ("repro.sim", "engine"),
    ("repro.net", "fabric"),
    ("repro.core", "core"),
    ("repro.hardware.bloom", "bloom"),
    ("repro.hardware.crc", "crc"),
    ("repro.hardware.directory", "directory"),
    ("repro.hardware.nic", "nic"),
    ("repro.hardware.cache", "llc"),
    ("repro.workloads", "workload"),
    ("repro.kvs", "kvs"),
    ("repro.cluster", "cluster"),
)

#: Layers reported with a ``<layer>.self_s`` metric.
LAYERS = ("engine", "bloom", "crc", "directory", "nic", "llc", "fabric",
          "core", "workload", "kvs")

#: The simulation phase: every ``Engine.run`` call.
RUN = ("engine", "Engine.run")
_HANDLER = ("core", "fabric.handler")
_HANDLER_PROCESS = ("core", "fabric.handler.process")
_EXECUTE = ("core", "ProtocolBase.execute")


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            return layer
    return "other"


def kind_name(qualname: str) -> str:
    """A callback qualname as a metric-name fragment."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", qualname.replace(".<locals>", ""))


class LayerTracer:
    """Stack-based span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []
        self._active: set = set()
        self._patches: List[tuple] = []
        self._dispatch_keys: Dict[object, SpanKey] = {}
        #: One bound trampoline, so a wrapped ``schedule`` can tell a
        #: callback it already wrapped by identity.
        self._dispatch_once = self._dispatch
        #: ``(layer, name) -> [count, inclusive_s, self_s]``.
        self.spans: Dict[SpanKey, list] = {}
        #: Outcome counters the spans cannot express (probe hits,
        #: lock grants).
        self.counts: Counter = Counter()
        #: Every cluster built while installed (for LLC eviction totals).
        self.clusters: list = []

    # -- the recorder ---------------------------------------------------

    def enter(self, key: SpanKey) -> None:
        self._active.add(key)
        self._stack.append([key, self._clock(), 0.0])

    def exit(self) -> None:
        key, start, child = self._stack.pop()
        elapsed = self._clock() - start
        self._active.discard(key)
        stat = self.spans.get(key)
        if stat is None:
            stat = self.spans[key] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, key: SpanKey) -> int:
        stat = self.spans.get(key)
        return stat[0] if stat else 0

    def inclusive_s(self, key: SpanKey) -> float:
        stat = self.spans.get(key)
        return stat[1] if stat else 0.0

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (layer, _name), stat in self.spans.items():
            totals[layer] = totals.get(layer, 0.0) + stat[2]
        return totals

    def dispatch_counts(self) -> Dict[str, int]:
        """Dispatched engine events per callback qualname."""
        return {name[len("event:"):]: stat[0]
                for (_layer, name), stat in self.spans.items()
                if name.startswith("event:")}

    # -- wrappers ---------------------------------------------------------

    def _patch(self, cls, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        functools.update_wrapper(wrapper, original)
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    def wrap(self, cls, name: str, key: SpanKey,
             on_result: Optional[Callable] = None) -> None:
        """Record a span around ``cls.name``.

        Calls made while a span of the same key is open (a subclass
        method calling ``super()``, a split filter probing its inner
        filter) run unwrapped, so one logical operation counts once.
        """
        func = cls.__dict__[name]
        enter, exit, active = self.enter, self.exit, self._active

        def wrapper(*args, **kwargs):
            if key in active:
                return func(*args, **kwargs)
            enter(key)
            try:
                result = func(*args, **kwargs)
            finally:
                exit()
            if on_result is not None:
                on_result(result)
            return result

        self._patch(cls, name, wrapper)

    def timed_generator(self, key: SpanKey, generator):
        """A generator that times each resume of ``generator``.

        ``send`` and ``throw`` are forwarded, so a process driving the
        shim drives the wrapped generator exactly as it would directly.
        """
        enter, exit = self.enter, self.exit
        value = error = None
        while True:
            enter(key)
            try:
                if error is None:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit()
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as caught:  # noqa: BLE001 - forwarded
                value, error = None, caught

    def _dispatch_key(self, callback) -> SpanKey:
        func = getattr(callback, "__func__", callback)
        # Closures made per call share one code object; wrappers made
        # by this module share one too, so they key by identity.
        cache_key = (func if hasattr(func, "__wrapped__")
                     else getattr(func, "__code__", func))
        key = self._dispatch_keys.get(cache_key)
        if key is None:
            qualname = getattr(func, "__qualname__", type(func).__name__)
            key = (layer_of_module(getattr(func, "__module__", None)),
                   "event:" + kind_name(qualname))
            self._dispatch_keys[cache_key] = key
        return key

    def _dispatch(self, callback, *args) -> None:
        self.enter(self._dispatch_key(callback))
        try:
            callback(*args)
        finally:
            self.exit()

    def _wrap_engine(self, cls) -> None:
        dispatch = self._dispatch_once
        enter, exit = self.enter, self.exit
        own = cls.__dict__
        if "schedule" in own:
            schedule = own["schedule"]
            key = ("engine", "Engine.schedule")

            def schedule_wrapper(engine, delay, callback, *args):
                if callback is dispatch:  # re-entered from a wrapped post
                    return schedule(engine, delay, callback, *args)
                enter(key)
                try:
                    return schedule(engine, delay, dispatch, callback, *args)
                finally:
                    exit()

            self._patch(cls, "schedule", schedule_wrapper)
        if "post" in own:
            post = own["post"]
            post_key = ("engine", "Engine.post")

            def post_wrapper(engine, callback, *args):
                enter(post_key)
                try:
                    return post(engine, dispatch, callback, *args)
                finally:
                    exit()

            self._patch(cls, "post", post_wrapper)
        if "cancel" in own:
            self.wrap(cls, "cancel", ("engine", "Engine.cancel"))

    def _wrap_fabric(self, fabric_cls) -> None:
        self.wrap(fabric_cls, "send", ("fabric", "Fabric.send"))
        register = fabric_cls.__dict__["register"]
        enter, exit = self.enter, self.exit
        timed_generator = self.timed_generator

        def register_wrapper(fabric, node_id, handler):
            def timed_handler(src, message):
                enter(_HANDLER)
                try:
                    result = handler(src, message)
                finally:
                    exit()
                if type(result) is GeneratorType:
                    return timed_generator(_HANDLER_PROCESS, result)
                return result

            return register(fabric, node_id, timed_handler)

        self._patch(fabric_cls, "register", register_wrapper)

    def _wrap_cluster(self, cluster_cls) -> None:
        init = cluster_cls.__dict__["__init__"]
        key = ("cluster", "Cluster.__init__")
        enter, exit, clusters = self.enter, self.exit, self.clusters

        def init_wrapper(cluster, *args, **kwargs):
            enter(key)
            try:
                init(cluster, *args, **kwargs)
            finally:
                exit()
            clusters.append(cluster)

        self._patch(cluster_cls, "__init__", init_wrapper)

    def _wrap_execute(self, protocol_cls) -> None:
        execute = protocol_cls.__dict__["execute"]
        timed_generator = self.timed_generator

        def execute_wrapper(protocol, *args, **kwargs):
            return timed_generator(_EXECUTE, execute(protocol, *args,
                                                     **kwargs))

        self._patch(protocol_cls, "execute", execute_wrapper)

    def install(self, layers: bool = True) -> "LayerTracer":
        """Wrap every layer's public entry points.

        With ``layers=False`` only ``Engine.run`` is wrapped: one span
        per run call, which is all an untraced sample needs to split
        set-up from simulation.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.sim.engine import Engine, HeapEngine

        for cls in (Engine, HeapEngine):
            if "run" in cls.__dict__:
                self.wrap(cls, "run", RUN)
        if not layers:
            return self
        from repro.cluster.cluster import Cluster
        from repro.core.base import ProtocolBase
        from repro.hardware.bloom import BloomFilter, SplitWriteBloomFilter
        from repro.hardware.cache import LlcModel
        from repro.hardware.crc import HashFamily
        from repro.hardware.directory import Directory
        from repro.hardware.nic import Nic
        from repro.kvs.base import KeyValueStore
        from repro.net.fabric import Fabric
        from repro.workloads.base import Workload

        counts = self.counts

        def note(counter):
            def on_result(result):
                if result:
                    counts[counter] += 1
            return on_result

        for cls in (Engine, HeapEngine):
            self._wrap_engine(cls)
        for cls in (BloomFilter, SplitWriteBloomFilter):
            self.wrap(cls, "insert", ("bloom", "insert"))
            self.wrap(cls, "might_contain", ("bloom", "probe"),
                      on_result=note("bloom.positive"))
            self.wrap(cls, "clear", ("bloom", "clear"))
        self.wrap(HashFamily, "mask", ("crc", "HashFamily.mask"))
        self.wrap(Directory, "read_blocked", ("directory", "check"))
        self.wrap(Directory, "write_blocked", ("directory", "check"))
        self.wrap(Directory, "try_lock", ("directory", "Directory.try_lock"),
                  on_result=note("directory.granted"))
        self.wrap(Nic, "check_remote_conflicts",
                  ("nic", "Nic.check_remote_conflicts"))
        self.wrap(LlcModel, "touch", ("llc", "LlcModel.touch"))
        self._wrap_fabric(Fabric)
        self._wrap_execute(ProtocolBase)
        for cls in _with_subclasses(Workload):
            for name in ("populate", "next_transaction"):
                if name in cls.__dict__:
                    self.wrap(cls, name, ("workload", f"Workload.{name}"))
        for cls in _with_subclasses(KeyValueStore):
            for name in ("insert", "lookup", "bulk_load", "range_scan"):
                if name in cls.__dict__:
                    self.wrap(cls, name, ("kvs", f"KeyValueStore.{name}"))
        self._wrap_cluster(Cluster)
        return self

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    @property
    def patched(self) -> List[tuple]:
        """``(class, name, original)`` for every installed wrapper."""
        return list(self._patches)


def _with_subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


def layer_metrics(tracer: LayerTracer, committed: int,
                  events: int) -> Dict[str, float]:
    """Per-layer seconds and per-commit counts of one traced run.

    Seconds are the traced run's own (inflated by tracing; see
    ``trace.overhead``).  Counts are exact for a given seed.
    """
    per = 1.0 / committed
    self_s = tracer.self_by_layer()
    count = tracer.count
    metrics: Dict[str, float] = {
        f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    probes = count(("bloom", "probe"))
    locks = count(("directory", "Directory.try_lock"))
    evictions = sum(node.llc.eviction_count
                    for cluster in tracer.clusters for node in cluster.nodes)
    metrics.update({
        "engine.events_per_commit": events * per,
        "engine.schedules_per_commit": count(("engine", "Engine.schedule")) * per,
        "engine.posts_per_commit": count(("engine", "Engine.post")) * per,
        "engine.cancels_per_commit": count(("engine", "Engine.cancel")) * per,
        "bloom.probes_per_commit": probes * per,
        "bloom.inserts_per_commit": count(("bloom", "insert")) * per,
        "bloom.positive_ratio": (tracer.counts["bloom.positive"] / probes
                                 if probes else 0.0),
        "crc.masks_per_commit": count(("crc", "HashFamily.mask")) * per,
        "directory.checks_per_commit": count(("directory", "check")) * per,
        "directory.lock_attempts_per_commit": locks * per,
        "directory.lock_grant_ratio": (tracer.counts["directory.granted"]
                                       / locks if locks else 0.0),
        "nic.conflict_checks_per_commit":
            count(("nic", "Nic.check_remote_conflicts")) * per,
        "llc.touches_per_commit": count(("llc", "LlcModel.touch")) * per,
        "llc.evictions_per_commit": evictions * per,
        "fabric.sends_per_commit": count(("fabric", "Fabric.send")) * per,
        "fabric.handler_s": (tracer.inclusive_s(_HANDLER)
                             + tracer.inclusive_s(_HANDLER_PROCESS)),
        "workload.draws_per_commit":
            count(("workload", "Workload.next_transaction")) * per,
        "workload.populate_s": tracer.inclusive_s(("workload",
                                                   "Workload.populate")),
        "cluster.build_s": tracer.inclusive_s(("cluster", "Cluster.__init__")),
    })
    return metrics
