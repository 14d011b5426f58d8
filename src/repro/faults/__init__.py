"""Deterministic, seeded fault injection for the simulated cluster.

The subsystem has two parts (see docs/FAULTS.md):

* :class:`~repro.config.FaultPlan` — the declarative schedule (drop
  probability, delay jitter, NIC stall windows, crash/restart windows,
  replica-persist failure rate), parseable from the ``--faults`` CLI
  spec string.
* :class:`~repro.faults.injector.FaultInjector` — draws every
  probabilistic decision from one private seeded stream and decides a
  fate for each message (:meth:`~repro.faults.injector.FaultInjector.
  message_fate`) and each replica persist.  The runner attaches it to
  the cluster's own :class:`~repro.net.fabric.Fabric` through
  :attr:`~repro.net.fabric.Fabric.faults`.

Recovery relies on request timeouts: the runner arms
:attr:`~repro.net.fabric.RequestReplyHelper.default_timeout_ns` so a
dropped request or reply resolves its waiting event with
:data:`~repro.net.fabric.TIMED_OUT`, and protocols squash-and-retry
exactly like a conflict.
"""

from repro.faults.injector import FaultInjector

__all__ = ["FaultInjector"]
