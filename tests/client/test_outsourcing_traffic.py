"""Pin the wire traffic, modelled work and stored shares of a bulk load.

A seeded 2000-row Employees table and its Managers (n=5, k=3) are
outsourced into a fresh cluster, then a 300-row Ledger with three
randomly shared columns (one nullable), so the RNG draw order across
columns and rows shows in the shares.  The network bytes and messages, the
client and provider ``CostRecorder`` counts, and a digest of every
provider's stored rows, index entries and table versions must equal the
constants below.  The digest covers the order-preserving shares (the
deterministic slot polynomials, memoized per value) and the randomly
shared ``password`` column (whose shares depend on the order the client
draws from its RNG), so a faster load path must leave every share, byte
and message where it was.

Regenerate the constants (only for a deliberate change to the shares or
the traffic) with::

    PYTHONPATH=src python tests/client/test_outsourcing_traffic.py
"""

from __future__ import annotations

import hashlib
import random
from decimal import Decimal

import pytest

from repro import DataSource, ProviderCluster
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)
from repro.sqlengine.table import Table
from repro.workloads.employees import employees_table, managers_table

SEED = 31
EMPLOYEES = employees_table(2000, seed=SEED)
MANAGERS = managers_table(EMPLOYEES, 0.1, seed=SEED)


def ledger_table(rows: int) -> Table:
    rng = random.Random(SEED)
    schema = TableSchema(
        "Ledger",
        (
            integer_column("lid", 0, 10**6),
            integer_column("amount", -(10**6), 10**6, searchable=False),
            string_column("memo", 6, nullable=True, searchable=False),
            decimal_column("rate", 0, 100, searchable=False),
        ),
        primary_key="lid",
    )
    return Table(
        schema,
        [
            {
                "lid": lid,
                "amount": rng.randint(-(10**6), 10**6),
                "memo": None if rng.random() < 0.3 else rng.choice(["RENT", "FOOD", "PAY"]),
                "rate": Decimal(rng.randint(0, 10_000)) / 100,
            }
            for lid in range(rows)
        ],
    )


LEDGER = ledger_table(300)

#: (bytes, messages, client counts, provider counts)
EXPECTED_TRAFFIC = (1545865, 90, {"poly_eval": 60000}, {})

#: one digest per provider, in provider order
EXPECTED_DIGESTS = [
    "56c3e4c650a350dcf1933d7bcdc7f7f02fe26ef3c118ce86d760a297090c3547",
    "d6d0881078e9322d0632a51d646deadfc276365e024a9cbf7b5ccba3d6114e81",
    "c8c93ef51286a621509cce55ee44244ab48f09cea48b8bbba129dc1ebfb6afe7",
    "17d4cc7724c635c72d2c17272f1c47e6c02b605bd3f9d71a240d9135dc3f689f",
    "57dc08d1065d5a440b0b73093d5d12818e2bbf3d1ef2574ba0ef8f071b6d3afb",
]


def nonzero(counts):
    return {op: count for op, count in sorted(counts.items()) if count}


def provider_digest(provider) -> str:
    """sha256 over every table's rows (ascending row id, column order),
    index entries (ascending share order) and version."""
    digest = hashlib.sha256()
    store = provider.store
    for name in store.table_names():
        table = store.table(name)
        digest.update(repr((name, table.columns, table.version)).encode())
        for row_id, row in table.rows.items():
            digest.update(
                repr((row_id, [row[column] for column in table.columns])).encode()
            )
        for column in sorted(table.indexes):
            entries = table.indexes[column].entries_in_order()
            digest.update(repr((column, entries)).encode())
    return digest.hexdigest()


def load():
    """Outsource both tables; returns the traffic tuple and the digests."""
    source = DataSource(ProviderCluster(5, 3), seed=SEED)
    source.outsource_table(EMPLOYEES)
    source.outsource_table(MANAGERS)
    source.outsource_table(LEDGER)
    network = source.cluster.network
    traffic = (
        network.total_bytes,
        network.total_messages,
        nonzero(source.cost.snapshot()),
        nonzero(source.cluster.total_provider_cost().snapshot()),
    )
    digests = [provider_digest(p) for p in source.cluster.providers]
    return traffic, digests


@pytest.fixture(scope="module")
def loaded():
    return load()


def test_traffic_and_work_match_recorded_constants(loaded):
    traffic, _ = loaded
    assert traffic == EXPECTED_TRAFFIC


def test_stored_shares_match_recorded_digests(loaded):
    _, digests = loaded
    assert digests == EXPECTED_DIGESTS


if __name__ == "__main__":
    import pprint

    traffic, digests = load()
    pprint.pprint(traffic, width=100)
    pprint.pprint(digests, width=100)
