"""Crash recovery: kill-at-every-phase exactness, idempotence, snapshots."""

import pytest

from repro.client.datasource import DataSource
from repro.errors import SimulatedCrash
from repro.providers.cluster import ProviderCluster
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.schema import TableSchema, integer_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.txn import KILL_PHASES, TransactionManager

ROWS = 14


def accounts_schema():
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            integer_column("balance", 0, 1_000_000_000, searchable=False),
        ),
        primary_key="aid",
    )


def build_oracle():
    catalog = Catalog()
    table = Table(accounts_schema())
    for i in range(ROWS):
        table.insert({"aid": i, "balance": 1000 + i})
    catalog.add_table(table)
    return catalog, PlaintextExecutor(catalog)


def oracle_rows(catalog):
    return sorted(
        (row["aid"], row["balance"])
        for row in catalog.table("Accounts").rows()
    )


def live_rows(reader):
    return sorted(
        (row["aid"], row["balance"])
        for row in reader.select(parse_sql("SELECT * FROM Accounts"))
    )


def make_unsharded(wal_path):
    reader = DataSource(ProviderCluster(3, 2), seed=11)
    reader.create_table(accounts_schema())
    return reader, TransactionManager(reader, wal_path)


def make_sharded(wal_path):
    from repro.service.sharding import ShardRouter

    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=11
    )
    router.create_table(accounts_schema())
    return router, TransactionManager(router, wal_path)


SCRIPT = [
    f"UPDATE Accounts SET balance = balance + 250 WHERE aid < {ROWS // 2}",
    "UPDATE Accounts SET balance = 777 WHERE aid = 1",
    f"DELETE FROM Accounts WHERE aid = {ROWS - 1}",
]
VICTIM = f"UPDATE Accounts SET balance = balance + 9999 WHERE aid < {ROWS}"


def drill(make, wal_path, phase):
    """Run the script, crash at ``phase`` on the victim, recover, compare."""
    reader, manager = make(wal_path)
    catalog, oracle = build_oracle()
    for i in range(ROWS):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {1000 + i})"
        )
    for text in SCRIPT:
        manager.execute(text)
        oracle.execute(parse_sql(text))
    manager.kill_at = phase
    with pytest.raises(SimulatedCrash):
        manager.execute(VICTIM)
    # the durability contract: committed iff the WAL record was written
    if phase != "pre-log":
        oracle.execute(parse_sql(VICTIM))
    manager.close()
    recovering = TransactionManager(reader, wal_path)
    report = recovering.recover()
    return reader, recovering, catalog, report


@pytest.mark.parametrize("phase", KILL_PHASES)
def test_unsharded_recovery_is_exact(tmp_path, phase):
    wal = str(tmp_path / "u.wal")
    reader, recovering, catalog, report = drill(make_unsharded, wal, phase)
    assert live_rows(reader) == oracle_rows(catalog)
    expected_replay = 0 if phase in ("pre-log", "post-ack") else 1
    assert report["replayed"] == expected_replay
    recovering.close()


@pytest.mark.parametrize("phase", KILL_PHASES)
def test_sharded_recovery_is_exact(tmp_path, phase):
    wal = str(tmp_path / "s.wal")
    reader, recovering, catalog, report = drill(make_sharded, wal, phase)
    assert live_rows(reader) == oracle_rows(catalog)
    recovering.close()


def test_recovery_is_idempotent(tmp_path):
    """Recovering twice (crash during recovery) must not double-apply.

    The victim is a delta increment — the op where double-apply would
    actually corrupt values instead of being absorbed.
    """
    wal = str(tmp_path / "i.wal")
    reader, recovering, catalog, _ = drill(make_unsharded, wal, "mid-round")
    state_after_first = live_rows(reader)
    recovering.close()
    second = TransactionManager(reader, wal)
    report = second.recover()
    assert report["replayed"] == 0
    assert live_rows(reader) == state_after_first == oracle_rows(catalog)
    second.close()


def test_recovery_checkpoints_the_log(tmp_path):
    wal = str(tmp_path / "c.wal")
    reader, recovering, catalog, _ = drill(make_unsharded, wal, "pre-ack")
    # after recovery every txn is acked; the log must have been compacted
    # to just the checkpoint high-water record
    from repro.txn.wal import WriteAheadLog

    recovering.close()
    records = WriteAheadLog.read_records(wal)
    assert all(r["kind"] != "txn" for r in records)
    ckpts = [r for r in records if r["kind"] == "ckpt"]
    assert ckpts and ckpts[-1]["next_id"] >= ROWS + len(SCRIPT) + 1


def test_txn_ids_never_recycle_after_recovery(tmp_path):
    """A recycled txn id would be skipped by providers' applied sets."""
    wal = str(tmp_path / "r.wal")
    reader, recovering, catalog, _ = drill(make_unsharded, wal, "post-log")
    first_round_high = recovering._next_txn_id
    assert first_round_high >= ROWS + len(SCRIPT) + 2
    recovering.execute("UPDATE Accounts SET balance = 1 WHERE aid = 2")
    assert recovering._next_txn_id > first_round_high
    recovering.close()


def test_persistence_roundtrip_preserves_txn_state(tmp_path):
    """Snapshot + restore keeps epochs, history, and applied-txn sets."""
    from repro.persistence import load_deployment, save_deployment

    wal = str(tmp_path / "p.wal")
    reader, manager = make_unsharded(wal)
    for i in range(ROWS):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {1000 + i})"
        )
    for text in SCRIPT:
        manager.execute(text)
    epoch = reader.table_epoch("Accounts")
    state = live_rows(reader)
    manager.close()
    directory = str(tmp_path / "snap")
    save_deployment(reader, directory)
    restored = load_deployment(directory)
    assert restored.table_epoch("Accounts") == epoch
    assert live_rows(restored) == state
    # time travel works across the snapshot boundary
    past = restored.select_asof(parse_sql("SELECT * FROM Accounts"), epoch - 1)
    live = restored.select_asof(parse_sql("SELECT * FROM Accounts"), epoch)
    assert sorted((r["aid"], r["balance"]) for r in live) == state
    assert past != live
    # and the provider-side exactly-once sets survived
    provider = restored.cluster.providers[0]
    assert len(provider.store.applied_txns) == ROWS + len(SCRIPT)
