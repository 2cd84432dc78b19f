"""One TransactionManager for every deployment: DataSource or ShardRouter.

The manager resolves writes through the router's own routing, so a
sharded transactional statement obeys exactly the rules ``router.sql``
does, reads see every group, and a one-group router behaves — rows,
bytes and messages — like the plain ``DataSource`` it wraps.
"""

import pytest

from repro.client.datasource import DataSource
from repro.errors import TxnError, UnsupportedQueryError
from repro.providers.cluster import ProviderCluster
from repro.service.sharding import ShardRouter
from repro.sqlengine.schema import TableSchema, integer_column
from repro.txn import TransactionManager, WriteAheadLog


def range_schema():
    return TableSchema(
        "T",
        (integer_column("id", 0, 10_000), integer_column("k", 0, 1_000)),
        primary_key="id",
    )


def accounts_schema():
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            integer_column("balance", 0, 1_000_000_000, searchable=False),
        ),
        primary_key="aid",
    )


def range_router():
    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=3
    )
    router.create_table(
        range_schema(), mode="range", partition_column="k", boundaries=[500]
    )
    router.insert_many("T", [{"id": i, "k": 10 * i} for i in range(10)])
    return router


def test_partition_column_update_is_refused_like_the_router(tmp_path):
    router = range_router()
    statement = "UPDATE T SET k = 900 WHERE id = 3"
    with pytest.raises(UnsupportedQueryError) as direct:
        router.sql(statement)
    manager = TransactionManager(router, str(tmp_path / "r.wal"))
    with pytest.raises(UnsupportedQueryError) as transactional:
        manager.execute(statement)
    assert str(transactional.value) == str(direct.value)
    assert manager.stats()["logged"] == 0
    # the row was neither rewritten in place nor stranded
    assert router.sql("SELECT * FROM T WHERE id = 3") == [{"id": 3, "k": 30}]
    assert router.sql("SELECT * FROM T WHERE k >= 500") == []
    # the same guard holds inside an atomic batch on a one-group router
    single = ShardRouter([DataSource(ProviderCluster(3, 2), seed=5)])
    single.create_table(range_schema(), mode="range", partition_column="k")
    with pytest.raises(UnsupportedQueryError):
        TransactionManager(single).atomic(
            ["INSERT INTO T (id, k) VALUES (1, 10)", statement]
        )
    manager.close()


def test_reads_through_the_manager_see_every_group(tmp_path):
    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=7
    )
    router.create_table(accounts_schema())
    manager = TransactionManager(router, str(tmp_path / "h.wal"))
    for i in range(10):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {100 + i})",
            autocommit=False,
        )
    # the read barrier flushes the outbox, then reads the whole deployment
    assert manager.execute("SELECT COUNT(*) FROM Accounts") == 10
    assert router.sql("SELECT COUNT(*) FROM Accounts") == 10
    assert all(len(ids) > 0 for ids in router.shard_row_ids("Accounts").values())
    rows = manager.execute("SELECT * FROM Accounts ORDER BY aid")
    assert [(r["aid"], r["balance"]) for r in rows] == [
        (i, 100 + i) for i in range(10)
    ]
    manager.close()


def test_sharded_pure_delta_takes_the_delta_path_per_group(tmp_path):
    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=7
    )
    router.create_table(accounts_schema())
    wal = str(tmp_path / "d.wal")
    manager = TransactionManager(router, wal)
    for i in range(10):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {100 + i})"
        )
    # queued, not applied: the WAL still holds the logged record
    assert manager.execute(
        "UPDATE Accounts SET balance = balance + 5 WHERE aid < 10",
        autocommit=False,
    ) == 10
    records = WriteAheadLog.read_records(wal)
    last = [r for r in records if r.get("kind") == "txn"][-1]
    assert sorted(op["group"] for op in last["ops"]) == [0, 1]
    assert {op["method"] for op in last["ops"]} == {"increment_rows"}
    assert manager.flush() == 1
    assert sorted(
        (r["aid"], r["balance"]) for r in router.sql("SELECT * FROM Accounts")
    ) == [(i, 105 + i) for i in range(10)]
    with pytest.raises(TxnError):
        manager.atomic(["DELETE FROM Accounts WHERE aid = 1"])
    manager.close()


SCRIPT = [
    *(
        f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {1000 + 7 * i})"
        for i in range(12)
    ),
    "UPDATE Accounts SET balance = 42 WHERE aid = 3",
    "DELETE FROM Accounts WHERE aid = 5",
    "UPDATE Accounts SET balance = balance + 9 WHERE aid < 8",
]
BATCH = [
    "INSERT INTO Accounts (aid, balance) VALUES (100, 1)",
    "UPDATE Accounts SET balance = balance + 1 WHERE aid >= 10",
    "DELETE FROM Accounts WHERE aid = 0",
]


def run_script(deployment, group_sources, tmp_path, name):
    for source in group_sources:
        source.reset_accounting()
    manager = TransactionManager(deployment, str(tmp_path / f"{name}.wal"))
    results = [manager.execute(text) for text in SCRIPT]
    results.append(manager.atomic(BATCH))
    rows = manager.execute("SELECT * FROM Accounts ORDER BY aid")
    manager.close()
    network = [source.cluster.network for source in group_sources]
    return (
        results,
        rows,
        sum(n.total_bytes for n in network),
        sum(n.total_messages for n in network),
    )


def test_one_group_router_is_the_datasource_case(tmp_path):
    plain = DataSource(ProviderCluster(3, 2), seed=5)
    plain.create_table(accounts_schema())
    wrapped = DataSource(ProviderCluster(3, 2), seed=5)
    router = ShardRouter([wrapped])
    router.create_table(accounts_schema())
    direct = run_script(plain, [plain], tmp_path, "plain")
    routed = run_script(router, [wrapped], tmp_path, "routed")
    assert routed == direct
    results, rows, total_bytes, messages = direct
    assert results[:12] == list(range(12))
    assert results[12:] == [1, 1, 7, [12, 3, 1]]
    assert len(rows) == 11 and total_bytes > 0 and messages > 0
