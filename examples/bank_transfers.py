#!/usr/bin/env python
"""Concurrent bank transfers: serializability under contention.

Twenty accounts spread across the cluster; every transaction slot runs
a loop of interactive transfer transactions (read two balances, move a
random amount).  Money must be conserved under every protocol, no
matter how many squashes and retries the conflicts cause.

This is the paper's motivation made concrete: the protocols deliver
very different throughput, but the same serializable semantics.

Run:  python examples/bank_transfers.py   (exits 1 if money is lost)
"""

import sys

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.core import PROTOCOLS, read, write
from repro.sim import Engine
from repro.sim.random import DeterministicRandom

ACCOUNTS = 20
INITIAL_BALANCE = 1000
TRANSFERS_PER_CLIENT = 12


def first_value(values):
    return values[min(values)]


def run_protocol(name: str) -> dict:
    engine = Engine()
    config = ClusterConfig(nodes=3, cores_per_node=2, multiplexing=2)
    cluster = Cluster(engine, config, llc_sets=512)
    protocol = PROTOCOLS[name](cluster)

    for account in range(ACCOUNTS):
        cluster.allocate_record(account, data_bytes=64)

    def seed_accounts():
        for account in range(ACCOUNTS):
            yield from protocol.execute(0, 0, [write(account,
                                                     value=INITIAL_BALANCE)])

    engine.process(seed_accounts())
    engine.run()

    def client(node_id: int, slot: int):
        rng = DeterministicRandom(f"client-{node_id}-{slot}")
        for _ in range(TRANSFERS_PER_CLIENT):
            src, dst = rng.distinct_sample(ACCOUNTS, 2)
            amount = rng.randint(1, 50)

            def transfer():
                src_balance = first_value((yield read(src)))
                dst_balance = first_value((yield read(dst)))
                yield write(src, value=src_balance - amount)
                yield write(dst, value=dst_balance + amount)

            yield from protocol.execute(node_id, slot, transfer)

    for node_id in range(config.nodes):
        for slot in range(config.transactions_per_node):
            engine.process(client(node_id, slot))
    started = engine.now
    engine.run()

    def audit():
        ctx = yield from protocol.execute(0, 0,
                                          [read(a) for a in range(ACCOUNTS)])
        audit.total = sum(first_value(v) for v in ctx.read_results)

    engine.process(audit())
    engine.run()

    return {
        "total": audit.total,
        "elapsed_us": (engine.now - started) / 1000,
        "committed": protocol.metrics.meter.committed,
        "squashed": protocol.metrics.meter.aborted,
    }


def main() -> int:
    clients = 3 * 4
    expected = ACCOUNTS * INITIAL_BALANCE
    print(f"{clients} clients x {TRANSFERS_PER_CLIENT} transfers over "
          f"{ACCOUNTS} accounts (expected total: {expected})\n")
    print(f"{'protocol':10s} {'total':>8s} {'elapsed':>12s} "
          f"{'committed':>10s} {'squashed':>9s}")
    conserved = True
    for name in ("baseline", "hades-h", "hades"):
        stats = run_protocol(name)
        conserved = conserved and stats["total"] == expected
        status = "OK " if stats["total"] == expected else "LOST MONEY!"
        print(f"{name:10s} {stats['total']:8d} "
              f"{stats['elapsed_us']:9.1f} us {stats['committed']:10d} "
              f"{stats['squashed']:9d}  {status}")
    print("\nEvery protocol conserves the total despite conflicting "
          "concurrent transfers — squashed attempts retried to commit.")
    return 0 if conserved else 1


if __name__ == "__main__":
    sys.exit(main())
