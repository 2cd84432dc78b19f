"""Pin the wire traffic and modelled work of every read shape.

A seeded 200-row Employees deployment (n=5, k=3) runs a fixed battery of
reads and transactional writes.  For each operation the network bytes and
messages and the client and provider ``CostRecorder`` counts must equal
the constants below: a refactoring of the read path must not move a byte
or a modelled operation, since the benchmark's wire and modelled-time
metrics are built from exactly these counters.  Each SELECT/join also
checks that ``explain()`` names the RPC method execution actually sent.

Regenerate the table (only for a deliberate traffic change) with::

    PYTHONPATH=src python tests/client/test_read_traffic.py
"""

from __future__ import annotations

import tempfile
from collections import Counter

import pytest

from repro import DataSource, ProviderCluster
from repro.sqlengine.sqlparser import parse_sql
from repro.trust.auditing import AuditRegistry
from repro.txn import TransactionManager
from repro.workloads.employees import employees_table, managers_table

SEED = 23
EMPLOYEES = employees_table(200, seed=SEED)
MANAGERS = managers_table(EMPLOYEES, 0.2, seed=SEED)
EIDS = sorted(row["eid"] for row in EMPLOYEES.rows())
MANAGER_EIDS = sorted(row["eid"] for row in MANAGERS.rows())

POINT = f"SELECT * FROM Employees WHERE eid = {EIDS[17]}"
RANGE = f"SELECT name, salary FROM Employees WHERE eid BETWEEN {EIDS[100]} AND {EIDS[101]}"
TOPK = "SELECT name, salary FROM Employees ORDER BY salary DESC LIMIT 5"
SUM = "SELECT SUM(salary) FROM Employees WHERE salary BETWEEN 20000 AND 60000"
COUNT = "SELECT COUNT(*) FROM Employees WHERE department = 'ENG'"
GROUP = "SELECT department, COUNT(*) FROM Employees GROUP BY department"
JOIN = (
    "SELECT Employees.name, Managers.manager_username FROM Employees "
    "JOIN Managers ON Employees.eid = Managers.eid "
    f"WHERE Managers.eid BETWEEN {MANAGER_EIDS[5]} AND {MANAGER_EIDS[15]}"
)
UPDATE = f"UPDATE Employees SET salary = salary + 7 WHERE eid BETWEEN {EIDS[40]} AND {EIDS[45]}"
DELETE = f"DELETE FROM Employees WHERE eid = {EIDS[60]}"

#: operation -> (bytes, messages, client counts, provider counts, RPC methods)
EXPECTED = {
    "point": (
        832, 6, {"interpolate": 5, "poly_eval": 6}, {"compare": 48},
        ["select"],
    ),
    "range": (
        1226, 6, {"interpolate": 10, "poly_eval": 6}, {"compare": 48},
        ["select"],
    ),
    "topk": (
        2321, 6, {"interpolate": 25}, {"compare": 4800},
        ["select"],
    ),
    "sum": (
        584, 6, {"interpolate": 1, "poly_eval": 6}, {"compare": 330},
        ["aggregate"],
    ),
    "count": (
        513, 6, {"poly_eval": 6}, {"compare": 48},
        ["aggregate"],
    ),
    "group": (
        1197, 6, {"interpolate": 8}, {"compare": 600},
        ["aggregate_group"],
    ),
    "join": (
        8589, 6, {"interpolate": 99, "poly_eval": 6}, {"compare": 669},
        ["join"],
    ),
    "update": (
        4823, 26, {"interpolate": 30, "poly_eval": 36}, {"compare": 48},
        ["select", "txn_commit", "txn_prepare"],
    ),
    "delete": (
        1905, 26, {"interpolate": 5, "poly_eval": 6}, {"compare": 48},
        ["select", "txn_commit", "txn_prepare"],
    ),
    "verified_select": (
        2040, 10, {"interpolate": 10, "poly_eval": 10}, {"compare": 80},
        ["select"],
    ),
    "verified_sum": (
        61934, 10, {"interpolate": 470, "poly_eval": 10}, {"compare": 80},
        ["select"],
    ),
    "robust": (
        2040, 10, {"interpolate": 30, "poly_eval": 10}, {"compare": 80},
        ["select"],
    ),
    "asof": (
        78372, 6, {"interpolate": 1000}, {"compare": 621},
        ["scan_asof"],
    ),
    "audited": (
        1226, 6, {"interpolate": 10, "poly_eval": 6}, {"compare": 48},
        ["select"],
    ),
}


def strategy_rpc(strategy: str):
    """The read RPC an ``explain()`` strategy string commits to."""
    if strategy.startswith("provably empty"):
        return None
    if strategy == "provider-grouped partial aggregation":
        return "aggregate_group"
    if strategy == "provider-side partial aggregation":
        return "aggregate"
    if strategy == "provider-side hash join on deterministic shares":
        return "join"
    return "select"


def deploy(**kwargs) -> DataSource:
    source = DataSource(ProviderCluster(5, 3), seed=SEED, **kwargs)
    source.outsource_table(EMPLOYEES)
    source.outsource_table(MANAGERS)
    return source


def count_methods(source: DataSource) -> Counter:
    """Count the RPC methods providers serve from now on."""
    methods: Counter = Counter()
    for provider in source.cluster.providers:
        handle = provider.handle

        def counting(method, request, _handle=handle):
            methods[method] += 1
            return _handle(method, request)

        provider.handle = counting
    return methods


def nonzero(counts):
    return {op: count for op, count in sorted(counts.items()) if count}


def measure(source: DataSource, methods: Counter, run):
    source.reset_accounting()
    methods.clear()
    run()
    network = source.cluster.network
    return (
        network.total_bytes,
        network.total_messages,
        nonzero(source.cost.snapshot()),
        nonzero(source.cluster.total_provider_cost().snapshot()),
        sorted(methods),
    )


def battery():
    """Run every operation; returns ``{name: measurement}`` and the
    ``{name: explained RPC}`` of each SELECT/join."""
    source = deploy()
    methods = count_methods(source)
    results, explained = {}, {}
    reads = {
        "point": POINT, "range": RANGE, "topk": TOPK, "sum": SUM,
        "count": COUNT, "group": GROUP, "join": JOIN,
    }
    for name, sql in reads.items():
        explained[name] = strategy_rpc(source.explain(sql)["strategy"])
        results[name] = measure(source, methods, lambda: source.sql(sql))
    with tempfile.TemporaryDirectory() as scratch:
        manager = TransactionManager(source, wal_path=f"{scratch}/wal.log")
        try:
            for name, sql in (("update", UPDATE), ("delete", DELETE)):
                results[name] = measure(
                    source, methods, lambda: manager.execute(sql)
                )
        finally:
            manager.close()
    source.verified_reads = True
    explained["verified_select"] = strategy_rpc(source.explain(RANGE)["strategy"])
    results["verified_select"] = measure(source, methods, lambda: source.sql(RANGE))
    explained["verified_sum"] = strategy_rpc(source.explain(SUM)["strategy"])
    results["verified_sum"] = measure(source, methods, lambda: source.sql(SUM))
    source.verified_reads = False
    explained["robust"] = strategy_rpc(source.explain(RANGE)["strategy"])
    results["robust"] = measure(
        source, methods, lambda: source.select_robust(parse_sql(RANGE))
    )
    results["asof"] = measure(
        source,
        methods,
        lambda: source.select_asof(parse_sql(COUNT), source.table_epoch("Employees") - 1),
    )
    audited = deploy(audit=AuditRegistry(5))
    audited_methods = count_methods(audited)
    explained["audited"] = strategy_rpc(audited.explain(RANGE)["strategy"])
    results["audited"] = measure(
        audited, audited_methods, lambda: audited.select_verified(parse_sql(RANGE))
    )
    return results, explained


@pytest.fixture(scope="module")
def measured():
    return battery()


def test_traffic_and_work_match_recorded_constants(measured):
    results, _ = measured
    assert set(results) == set(EXPECTED)
    for name, measurement in results.items():
        assert list(measurement) == list(EXPECTED[name]), name


def test_explain_names_the_rpc_execution_sends(measured):
    results, explained = measured
    for name, rpc in explained.items():
        assert results[name][4] == [rpc], name


if __name__ == "__main__":
    import pprint

    pprint.pprint(battery()[0], width=100, sort_dicts=False)
