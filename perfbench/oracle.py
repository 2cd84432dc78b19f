"""Correctness oracles, run outside every timed region.

``analytics`` answers are checked against stdlib :mod:`sqlite3` loaded
with the same generated rows, so the check does not share the program's
own SQL parser or executor.  Where the program's answer may legitimately
differ from sqlite's in form, a named adapter says how:

* ``unordered_rows`` — a SELECT without ORDER BY returns rows in no
  promised order: compare as multisets of tuples;
* ``topk_ties`` — ``ORDER BY salary DESC LIMIT 10`` may break ties at the
  cut differently: the ordered salaries must match sqlite's, and every
  returned row must be one sqlite also ranks with that salary;
* ``group_order`` — GROUP BY groups come in no promised order: compare
  as multisets;
* ``scalar`` — an aggregate is one value (None for SUM of no rows, as in
  sqlite).

A mismatch raises :class:`OracleMismatch`; it fails the run and is never
a metric.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Dict, Iterable, List, Sequence

from statements import SCAN_CLASSES


class OracleMismatch(AssertionError):
    """The program returned an answer the oracle does not accept."""


def _tuples(rows: Iterable[Dict[str, object]]) -> List[tuple]:
    return [tuple(row.values()) for row in rows]


class SqliteOracle:
    """An in-memory sqlite copy of the generated tables."""

    def __init__(self, tables: Sequence) -> None:
        self.db = sqlite3.connect(":memory:")
        for table in tables:
            columns = table.schema.column_names
            self.db.execute(f"CREATE TABLE {table.name} ({', '.join(columns)})")
            self.db.executemany(
                f"INSERT INTO {table.name} VALUES ({', '.join('?' for _ in columns)})",
                [tuple(row[c] for c in columns) for row in table.rows()],
            )
        self.db.commit()

    def close(self) -> None:
        self.db.close()

    def query(self, sql: str) -> List[tuple]:
        return self.db.execute(sql).fetchall()

    def check(self, kind: str, sql: str, answer: object) -> None:
        """Raise :class:`OracleMismatch` unless ``answer`` is acceptable."""
        if kind == "topk":
            self._check_topk(sql, answer)
        elif kind in SCAN_CLASSES or kind == "group_by":
            got, want = Counter(_tuples(answer)), Counter(self.query(sql))
            if got != want:
                adapter = "group_order" if kind == "group_by" else "unordered_rows"
                raise OracleMismatch(
                    f"{adapter}: {sql!r}: {sum(got.values())} rows returned, "
                    f"{sum((got - want).values())} not in the oracle's "
                    f"{sum(want.values())}"
                )
        else:
            want = self.query(sql)[0][0]
            if answer != want:
                raise OracleMismatch(f"scalar: {sql!r}: got {answer!r}, want {want!r}")

    def _check_topk(self, sql: str, answer: object) -> None:
        # the generator writes "... ORDER BY salary DESC LIMIT 10" with
        # salary last in the projection
        unlimited = sql[: sql.rindex(" LIMIT ")]
        limit = int(sql[sql.rindex(" LIMIT ") + len(" LIMIT "):])
        ranked = self.query(unlimited)
        got = _tuples(answer)
        if [row[-1] for row in got] != [row[-1] for row in ranked[:limit]]:
            raise OracleMismatch(f"topk_ties: {sql!r}: salaries out of order or wrong")
        by_salary: Dict[object, Counter] = {}
        for row in ranked:
            by_salary.setdefault(row[-1], Counter())[row] += 1
        for row in got:
            if by_salary.get(row[-1], Counter())[row] < 1:
                raise OracleMismatch(f"topk_ties: {sql!r}: row {row!r} not in oracle")
            by_salary[row[-1]][row] -= 1


def check_rows_equal(label: str, got: Iterable[Dict], want: Iterable[Dict]) -> None:
    """Multiset equality of two row lists (used by ``oltp`` and ``ingest``)."""
    got_rows, want_rows = Counter(_tuples(got)), Counter(_tuples(want))
    if got_rows != want_rows:
        raise OracleMismatch(
            f"{label}: {sum((got_rows - want_rows).values())} unexpected rows, "
            f"{sum((want_rows - got_rows).values())} missing rows"
        )
