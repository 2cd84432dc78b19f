"""Seeded statement generation for the three workloads.

Everything a run sends to the program is produced here, from ``--seed``,
before any timing starts; the program receives only SQL text (or, for
``ingest``, the generated tables).

Both read-heavy and write-heavy mixes are dealt in *decks*: a deck is a
fixed multiset of statement classes shuffled by the seed.  Every run
therefore executes exactly the same class proportions over any whole
number of decks, so medians and tails land inside the same latency mode
on every seed instead of jumping between modes as a free random mix
would make them do.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.employees import (
    EID_HI,
    EID_LO,
    employees_table,
    managers_table,
)

#: Deployment shape every workload uses.
N_PROVIDERS = 5
THRESHOLD = 3

DEPARTMENTS = ("SALES", "ENG", "HR", "LEGAL", "OPS", "FIN", "RND", "IT")

#: ``analytics`` deck: 16 fresh statements and 4 exact repeats (20%).
#: The four repeat slots each re-issue a recent statement of one class.
#: Proportions put the median inside the 1%-range/salary-band mode
#: (about 40%-80% of a deck) and the 95th percentile in the middle of
#: the 10%-range mode (the top 10%).
ANALYTICS_FRESH: Tuple[Tuple[str, int], ...] = (
    ("point", 2),
    ("range_1pct", 4),
    ("range_10pct", 2),
    ("salary_band", 3),
    ("topk", 1),
    ("join", 1),
    ("sum", 1),
    ("count", 1),
    ("group_by", 1),
)
ANALYTICS_REPEATS: Tuple[str, ...] = ("point", "range_1pct", "salary_band", "sum")

#: Statement classes that return rows (``scan``); the rest are aggregates.
SCAN_CLASSES = frozenset(
    {"point", "range_1pct", "range_10pct", "salary_band", "topk", "join"}
)

#: ``oltp`` deck per client: 70% point reads, 15% ``salary = salary + d``,
#: 5% SET of a searchable column, 5% INSERT, 5% DELETE.
OLTP_DECK: Tuple[Tuple[str, int], ...] = (
    ("read", 14),
    ("add_salary", 3),
    ("set_department", 1),
    ("insert", 1),
    ("delete", 1),
)

#: How many recent statements of a class a repeat may pick from.
REPEAT_WINDOW = 8


@dataclass(frozen=True)
class Statement:
    """One generated statement: its class and its SQL text.

    ``key`` and ``arg`` carry what an ``oltp`` client needs to keep its
    plaintext mirror: the row's eid and the delta, department or new row.
    """

    kind: str
    sql: str
    repeat: bool = False
    key: Optional[int] = None
    arg: object = None


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / r**s, ranks from 0."""

    def __init__(self, n: int, s: float) -> None:
        self._cumulative = list(accumulate(1.0 / (r + 1) ** s for r in range(n)))

    def pick(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_left(self._cumulative, point), len(self._cumulative) - 1)


def data_tables(rows: int, seed: int, manager_fraction: float = 0.1):
    """The Employees table and its Managers (``manager_fraction`` of it)."""
    employees = employees_table(rows, seed=seed)
    managers = managers_table(employees, fraction=manager_fraction, seed=seed)
    return employees, managers


# ----------------------------------------------------------------- analytics --


class AnalyticsGenerator:
    """Deals ``analytics`` decks over one generated Employees/Managers pair.

    Ranges are cut by *rank* in the sorted key column, so a "1%" range
    returns exactly 1% of the rows on every seed.
    """

    def __init__(self, employees, managers, seed: int) -> None:
        self.rng = random.Random(f"perfbench/analytics/{seed}")
        rows = employees.rows()
        self.eids = sorted(row["eid"] for row in rows)
        self.salaries = sorted(row["salary"] for row in rows)
        self.manager_eids = sorted(row["eid"] for row in managers.rows())
        self.history: Dict[str, List[Statement]] = {}
        self.zipf = Zipf(REPEAT_WINDOW, 1.1)

    def _span(self, keys: Sequence[int], width: int) -> Tuple[int, int]:
        width = max(1, min(width, len(keys)))
        start = self.rng.randrange(len(keys) - width + 1)
        return keys[start], keys[start + width - 1]

    def fresh(self, kind: str) -> Statement:
        n = len(self.eids)
        if kind == "point":
            sql = f"SELECT * FROM Employees WHERE eid = {self.rng.choice(self.eids)}"
        elif kind == "range_1pct":
            lo, hi = self._span(self.eids, n // 100)
            sql = f"SELECT * FROM Employees WHERE eid BETWEEN {lo} AND {hi}"
        elif kind == "range_10pct":
            lo, hi = self._span(self.eids, n // 10)
            sql = f"SELECT * FROM Employees WHERE eid BETWEEN {lo} AND {hi}"
        elif kind == "salary_band":
            lo, hi = self._span(self.salaries, n // 100)
            sql = (
                "SELECT eid, name, salary FROM Employees "
                f"WHERE salary BETWEEN {lo} AND {hi}"
            )
        elif kind == "topk":
            ceiling = self.salaries[self.rng.randrange(n // 10, n)]
            sql = (
                "SELECT eid, name, salary FROM Employees "
                f"WHERE salary < {ceiling} ORDER BY salary DESC LIMIT 10"
            )
        elif kind == "join":
            lo, hi = self._span(self.manager_eids, max(1, len(self.manager_eids) // 50))
            sql = (
                "SELECT Employees.name, Employees.salary, "
                "Managers.manager_username, Managers.password "
                "FROM Employees JOIN Managers ON Employees.eid = Managers.eid "
                f"WHERE Managers.eid BETWEEN {lo} AND {hi}"
            )
        elif kind == "sum":
            if self.rng.random() < 0.5:
                lo, hi = self._span(self.eids, n // 10)
                where = f"eid BETWEEN {lo} AND {hi}"
            else:
                lo, hi = self._span(self.salaries, n // 20)
                where = f"salary BETWEEN {lo} AND {hi}"
            sql = f"SELECT SUM(salary) FROM Employees WHERE {where}"
        elif kind == "count":
            floor = self.salaries[self.rng.randrange(n)]
            sql = (
                "SELECT COUNT(*) FROM Employees WHERE department = "
                f"'{self.rng.choice(DEPARTMENTS)}' AND salary > {floor}"
            )
        elif kind == "group_by":
            lo, hi = self._span(self.eids, n // 5)
            sql = (
                "SELECT department, SUM(salary) FROM Employees "
                f"WHERE eid BETWEEN {lo} AND {hi} GROUP BY department"
            )
        else:
            raise ValueError(f"unknown analytics class {kind!r}")
        statement = Statement(kind, sql)
        recent = self.history.setdefault(kind, [])
        recent.append(statement)
        del recent[:-REPEAT_WINDOW]
        return statement

    def _repeat(self, kind: str) -> Statement:
        recent = self.history.get(kind)
        if not recent:
            return self.fresh(kind)
        rank = min(self.zipf.pick(self.rng), len(recent) - 1)
        return Statement(kind, recent[-1 - rank].sql, repeat=True)

    def deck(self) -> List[Statement]:
        # repeats draw on history from earlier decks only
        repeats = [self._repeat(kind) for kind in ANALYTICS_REPEATS]
        statements = [
            self.fresh(kind) for kind, count in ANALYTICS_FRESH for _ in range(count)
        ]
        statements.extend(repeats)
        self.rng.shuffle(statements)
        return statements


# ---------------------------------------------------------------------- oltp --


class OltpClientScript:
    """One ``oltp`` client's statements, dealt in decks.

    The client owns a disjoint hot set of existing keys (picked by Zipf)
    and a disjoint pool of fresh keys to INSERT; each deck deletes the row
    the previous deck inserted, so the table size stays flat.
    """

    def __init__(
        self,
        client: int,
        seed: int,
        hot_rows: List[Dict[str, object]],
        fresh_eids: List[int],
    ) -> None:
        self.client = client
        self.rng = random.Random(f"perfbench/oltp/{seed}/{client}")
        self.hot = [row["eid"] for row in hot_rows]
        self.zipf = Zipf(len(self.hot), 0.9)
        self.fresh_eids = list(fresh_eids)
        self.inserted: List[int] = []

    def _hot_key(self) -> int:
        return self.hot[self.zipf.pick(self.rng)]

    def _statement(self, kind: str, previous: Optional[int]) -> Statement:
        if kind == "read":
            key = self._hot_key()
            return Statement(kind, f"SELECT * FROM Employees WHERE eid = {key}", key=key)
        if kind == "add_salary":
            key, delta = self._hot_key(), self.rng.randint(1, 50)
            sql = f"UPDATE Employees SET salary = salary + {delta} WHERE eid = {key}"
            return Statement(kind, sql, key=key, arg=delta)
        if kind == "set_department":
            key, department = self._hot_key(), self.rng.choice(DEPARTMENTS)
            sql = f"UPDATE Employees SET department = '{department}' WHERE eid = {key}"
            return Statement(kind, sql, key=key, arg=department)
        if kind == "insert":
            row = {
                "eid": self.fresh_eids.pop(),
                "name": f"CLIENT{chr(ord('A') + self.client)}",
                "lastname": "BENCH",
                "department": self.rng.choice(DEPARTMENTS),
                "salary": self.rng.randint(20_000, 120_000),
            }
            self.inserted.append(row["eid"])
            sql = (
                "INSERT INTO Employees (eid, name, lastname, department, salary) "
                f"VALUES ({row['eid']}, '{row['name']}', '{row['lastname']}', "
                f"'{row['department']}', {row['salary']})"
            )
            return Statement(kind, sql, key=row["eid"], arg=row)
        if kind == "delete":
            return Statement(
                kind, f"DELETE FROM Employees WHERE eid = {previous}", key=previous
            )
        raise ValueError(f"unknown oltp class {kind!r}")

    def deck(self) -> List[Statement]:
        """The next deck; it deletes the row the previous deck inserted."""
        previous = self.inserted[-1] if self.inserted else None
        kinds = [kind for kind, count in OLTP_DECK for _ in range(count)]
        if previous is None:
            kinds[kinds.index("delete")] = "read"
        self.rng.shuffle(kinds)
        return [self._statement(kind, previous) for kind in kinds]


def oltp_scripts(
    employees, seed: int, clients: int, hot_size: int, max_decks: int
) -> List[OltpClientScript]:
    """Disjoint hot sets and fresh-key pools for each client."""
    rng = random.Random(f"perfbench/oltp/{seed}")
    rows = sorted(employees.rows(), key=lambda row: row["eid"])
    rng.shuffle(rows)
    taken = {row["eid"] for row in rows}
    fresh: List[int] = []
    while len(fresh) < clients * (max_decks + 1):
        eid = rng.randint(EID_LO, EID_HI)
        if eid not in taken:
            taken.add(eid)
            fresh.append(eid)
    per_client = max_decks + 1
    return [
        OltpClientScript(
            c,
            seed,
            rows[c * hot_size:(c + 1) * hot_size],
            fresh[c * per_client:(c + 1) * per_client],
        )
        for c in range(clients)
    ]
