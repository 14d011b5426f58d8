"""TPC-C model (Section VII).

"TPC-C is write intensive and has many record accesses per transaction
at a fine granularity" — a typical transaction issues ~13.5 small
requests.  We model the two transactions that make up >88 % of the
standard mix:

* **new-order** (75 %): read warehouse, update district (D_NEXT_O_ID),
  read customer, then per order line (4-8 lines): read item + update
  stock; finally write the order into a per-district ring of order
  slots.  ~16 requests at 6 lines.
* **payment** (25 %): update warehouse YTD, update district YTD, update
  customer balance.  3 requests.

Weighted request count: 0.75x16 + 0.25x3 ≈ 12.8 ≈ the paper's 13.5.
All writes touch 8-64 B fields of larger records (fine granularity).

Table sizes scale with ``warehouses`` using TPC-C's ratios (scaled
down); items default to 20 000 (the paper fills 10 M — see DESIGN.md's
scale-down policy).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.core.api import Request, read, write
from repro.sim.random import DeterministicRandom
from repro.workloads.base import Workload

WAREHOUSE_BYTES = 768
DISTRICT_BYTES = 768
CUSTOMER_BYTES = 512
ITEM_BYTES = 128
STOCK_BYTES = 256
ORDER_BYTES = 512

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 120
ORDER_SLOTS_PER_DISTRICT = 100

NEW_ORDER_FRACTION = 0.75
MIN_ORDER_LINES = 4
MAX_ORDER_LINES = 8


class TpccWorkload(Workload):
    """Scaled TPC-C new-order + payment."""

    name = "TPC-C"

    def __init__(self, warehouses: int = 8, items: int = 20000,
                 locality: Optional[float] = None,
                 record_id_base: int = 0, seed: int = 13):
        if warehouses < 1:
            raise ValueError("need at least one warehouse")
        if items < MAX_ORDER_LINES:
            raise ValueError("need more items than order lines")
        self.warehouses = warehouses
        self.items = items
        self.districts = warehouses * DISTRICTS_PER_WAREHOUSE
        self.customers = self.districts * CUSTOMERS_PER_DISTRICT
        self.stock_records = warehouses * items
        self.order_slots = self.districts * ORDER_SLOTS_PER_DISTRICT
        record_count = (warehouses + self.districts + self.customers
                        + items + self.stock_records + self.order_slots)
        # record_bytes is nominal; populate() sizes each table itself.
        super().__init__(record_count, WAREHOUSE_BYTES, locality=locality,
                         record_id_base=record_id_base)
        self._order_cursors: dict = {}
        #: TPC-C terminals are bound to a home warehouse/district; we
        #: assign them per client id (round-robin over districts).
        self._client_homes: dict = {}
        self._next_home = 0
        self._seed = seed

    # -- key layout ------------------------------------------------------

    def warehouse_record(self, warehouse: int) -> int:
        return self.record_id_base + warehouse

    def district_record(self, warehouse: int, district: int) -> int:
        return (self.record_id_base + self.warehouses
                + warehouse * DISTRICTS_PER_WAREHOUSE + district)

    def customer_record(self, district_index: int, customer: int) -> int:
        return (self.record_id_base + self.warehouses + self.districts
                + district_index * CUSTOMERS_PER_DISTRICT + customer)

    def item_record(self, item: int) -> int:
        return (self.record_id_base + self.warehouses + self.districts
                + self.customers + item)

    def stock_record(self, warehouse: int, item: int) -> int:
        return (self.record_id_base + self.warehouses + self.districts
                + self.customers + self.items + warehouse * self.items + item)

    def order_record(self, district_index: int, slot: int) -> int:
        return (self.record_id_base + self.warehouses + self.districts
                + self.customers + self.items + self.stock_records
                + district_index * ORDER_SLOTS_PER_DISTRICT + slot)

    def populate(self, cluster: Cluster) -> None:
        tables = (
            (self.warehouse_record(0), self.warehouses, WAREHOUSE_BYTES),
            (self.district_record(0, 0), self.districts, DISTRICT_BYTES),
            (self.customer_record(0, 0), self.customers, CUSTOMER_BYTES),
            (self.item_record(0), self.items, ITEM_BYTES),
            (self.stock_record(0, 0), self.stock_records, STOCK_BYTES),
            (self.order_record(0, 0), self.order_slots, ORDER_BYTES),
        )
        for first, count, data_bytes in tables:
            cluster.allocate_records(range(first, first + count), data_bytes)

    # -- transactions -----------------------------------------------------

    def _home_of(self, rng: DeterministicRandom, client_id) -> tuple:
        """(warehouse, district) home for a terminal.

        TPC-C binds each terminal to one warehouse/district; anonymous
        callers (client_id None) get a random home per transaction.
        """
        if client_id is None:
            warehouse = rng.randrange(self.warehouses)
            return warehouse, rng.randrange(DISTRICTS_PER_WAREHOUSE)
        home = self._client_homes.get(client_id)
        if home is None:
            index = self._next_home
            self._next_home += 1
            home = (index % self.warehouses,
                    (index // self.warehouses) % DISTRICTS_PER_WAREHOUSE)
            self._client_homes[client_id] = home
        return home

    def next_transaction(self, rng: DeterministicRandom, node_id: int,
                         cluster: Cluster, client_id=None) -> List[Request]:
        warehouse, district = self._home_of(rng, client_id)
        if rng.random() < NEW_ORDER_FRACTION:
            return self._new_order(rng, warehouse, district)
        return self._payment(rng, warehouse, district)

    def _new_order(self, rng: DeterministicRandom, warehouse: int,
                   district: int) -> List[Request]:
        district_index = warehouse * DISTRICTS_PER_WAREHOUSE + district
        customer = rng.randrange(CUSTOMERS_PER_DISTRICT)
        requests = [
            # W_TAX (8 B field).
            read(self.warehouse_record(warehouse), offset=0, size=8),
            # D_NEXT_O_ID bump (8 B field).
            write(self.district_record(warehouse, district),
                  value=rng.random(), offset=8, size=8),
            # Customer discount/credit (64 B of the record).
            read(self.customer_record(district_index, customer),
                 offset=0, size=64),
        ]
        line_count = rng.randint(MIN_ORDER_LINES, MAX_ORDER_LINES)
        items = rng.distinct_sample(self.items, line_count)
        for item in items:
            # 1 % of order lines hit a remote warehouse in TPC-C; with
            # hashed placement every warehouse is already distributed,
            # so the supplying warehouse is simply the home one.
            requests.append(read(self.item_record(item), offset=0, size=24))
            requests.append(write(self.stock_record(warehouse, item),
                                  value=rng.random(), offset=16, size=16))
        cursor = self._order_cursors.get(district_index, 0)
        self._order_cursors[district_index] = cursor + 1
        slot = cursor % ORDER_SLOTS_PER_DISTRICT
        requests.append(write(self.order_record(district_index, slot),
                              value=rng.random(), offset=0,
                              size=32 + 24 * line_count))
        return requests

    def _payment(self, rng: DeterministicRandom, warehouse: int,
                 district: int) -> List[Request]:
        district_index = warehouse * DISTRICTS_PER_WAREHOUSE + district
        customer = rng.randrange(CUSTOMERS_PER_DISTRICT)
        return [
            # W_YTD lives on its own cache line, far from W_TAX: at
            # line granularity payments do not conflict with new-order
            # tax reads (Table I row 4's "(ii) potential increase in
            # number of transaction conflicts" only bites the Baseline).
            write(self.warehouse_record(warehouse), value=rng.random(),
                  offset=512, size=8),  # W_YTD
            write(self.district_record(warehouse, district),
                  value=rng.random(), offset=512, size=8),  # D_YTD
            write(self.customer_record(district_index, customer),
                  value=rng.random(), offset=8, size=16),  # C_BALANCE
        ]
