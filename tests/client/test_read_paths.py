"""Every read entry point gives the same answer to the same query.

``select`` (plain and under ``verified_reads``), ``select_robust``,
``select_verified`` and ``select_with_ids`` share one plan → fetch →
finish pipeline, so ORDER BY/LIMIT, column validation and aggregate type
checks behave identically on each.  The only permitted difference is the
documented one: the robust, audited and id-returning entry points refuse
aggregates with :class:`QueryError`.
"""

import pytest

from repro import DataSource, ProviderCluster
from repro.errors import QueryError
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.trust.auditing import AuditRegistry
from repro.workloads.employees import employees_table, managers_table

from tests.sharding.shardutil import build_router

SEED = 3
EMPLOYEES = employees_table(60, seed=SEED)
MANAGERS = managers_table(EMPLOYEES, 0.2, seed=SEED)

BATTERY = [
    "SELECT name FROM Employees ORDER BY salary DESC LIMIT 2",
    "SELECT name, salary FROM Employees WHERE salary >= 40000 ORDER BY salary LIMIT 3",
    "SELECT nosuch FROM Employees",
    "SELECT name FROM Employees ORDER BY nosuch",
    "SELECT name FROM Employees WHERE eid < 0 ORDER BY nosuch",
    "SELECT SUM(nosuch) FROM Employees",
    "SELECT MAX(nosuch) FROM Employees",
    "SELECT SUM(name) FROM Employees",
]


def deploy(**kwargs) -> DataSource:
    source = DataSource(ProviderCluster(5, 3), seed=SEED, **kwargs)
    source.outsource_table(EMPLOYEES)
    source.outsource_table(MANAGERS)
    return source


@pytest.fixture(scope="module")
def sources():
    return {
        "plain": deploy(),
        "verified_reads": deploy(verified_reads=True),
        "audited": deploy(audit=AuditRegistry(5)),
    }


ENTRY_POINTS = {
    "select": lambda s, q: s["plain"].select(q),
    "select[verified_reads]": lambda s, q: s["verified_reads"].select(q),
    "select_robust": lambda s, q: s["plain"].select_robust(q),
    "select_verified": lambda s, q: s["audited"].select_verified(q),
    "select_with_ids": lambda s, q: [
        row for _, row in s["plain"].select_with_ids(q)
    ],
}

#: entry points that refuse aggregate queries outright
ROWS_ONLY = {"select_robust", "select_verified", "select_with_ids"}


def outcome(run):
    try:
        return run()
    except Exception as exc:  # the exception class is the outcome
        return type(exc)


@pytest.mark.parametrize("sql", BATTERY)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_agrees_with_plain_select(sources, entry, sql):
    query = parse_sql(sql)
    actual = outcome(lambda: ENTRY_POINTS[entry](sources, query))
    if query.is_aggregate and entry in ROWS_ONLY:
        assert actual is QueryError
        return
    expected = outcome(lambda: ENTRY_POINTS["select"](sources, query))
    assert actual == expected


def test_top_k_matches_the_oracle(sources):
    catalog = Catalog()
    catalog.add_table(Table(EMPLOYEES.schema, EMPLOYEES.rows()))
    query = parse_sql(BATTERY[0])
    expected = PlaintextExecutor(catalog).execute_select(query)
    for entry in ENTRY_POINTS:
        assert ENTRY_POINTS[entry](sources, query) == expected, entry


def test_select_with_ids_keeps_ids_through_order_and_limit(sources):
    source = sources["plain"]
    query = parse_sql("SELECT eid, salary FROM Employees ORDER BY salary DESC LIMIT 3")
    pairs = source.select_with_ids(query)
    by_id = dict(source.select_with_ids(parse_sql("SELECT * FROM Employees")))
    assert [row for _, row in pairs] == source.select(query)
    for row_id, row in pairs:
        assert by_id[row_id]["eid"] == row["eid"]


class TestJoinValidation:
    """Join projections are checked against both schemas up front, so an
    empty result cannot hide an unknown column."""

    UNKNOWN_EMPTY = (
        "SELECT Employees.nosuch FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid WHERE Employees.eid < 0"
    )
    UNKNOWN_FULL = (
        "SELECT Employees.nosuch FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid"
    )

    @pytest.mark.parametrize("sql", [UNKNOWN_EMPTY, UNKNOWN_FULL])
    def test_unsharded(self, sources, sql):
        with pytest.raises(QueryError):
            sources["plain"].join(parse_sql(sql))

    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("sql", [UNKNOWN_EMPTY, UNKNOWN_FULL])
    def test_sharded(self, mode, sql):
        router = build_router(mode)
        try:
            with pytest.raises(QueryError):
                router.join(parse_sql(sql))
        finally:
            router.close()

    @pytest.mark.parametrize("source_key", ["plain", "verified_reads"])
    def test_side_residual_applies_to_provider_joins(self, sources, source_key):
        """A single-table conjunct the providers cannot evaluate (here a
        randomly shared column) still filters the joined rows."""
        manager = MANAGERS.rows()[0]
        sql = (
            "SELECT Employees.eid FROM Employees JOIN Managers "
            "ON Employees.eid = Managers.eid "
            f"WHERE Managers.password = '{manager['password']}'"
        )
        rows = sources[source_key].join(parse_sql(sql))
        assert rows == [{"Employees.eid": manager["eid"]}]
