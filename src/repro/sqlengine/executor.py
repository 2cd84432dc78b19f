"""Plaintext reference executor.

Executes the query AST directly against in-memory tables.  This is the
**oracle** for the whole reproduction: every integration test runs the
same query here and through the secret-sharing client (and through the
encryption baselines) and asserts identical results.  It is also the
"trivially insecure" end point of the cost spectrum in the benchmarks.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, List, Union

from ..errors import QueryError
from .catalog import Catalog
from .query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Insert,
    JoinSelect,
    Select,
    Update,
)
from .schema import python_value_sort_key

Row = Dict[str, object]
Scalar = Union[int, float, Decimal, None]


def compute_aggregate(
    aggregate: Aggregate, rows: List[Row]
) -> Scalar:
    """Evaluate an aggregate over already-filtered rows.

    SQL semantics: aggregates ignore NULLs; COUNT(*) counts rows;
    SUM/MIN/MAX/MEDIAN over an empty (or all-NULL) input return None,
    COUNT returns 0.  MEDIAN follows the lower-median convention (the
    element at index ⌊(m−1)/2⌋ of the sorted values) so the result is
    always an actual data value — required for the share-based protocol,
    where the provider returns an existing tuple's shares (Sec. V-A).
    """
    if aggregate.func is AggregateFunc.COUNT:
        if aggregate.column is None:
            return len(rows)
        return sum(1 for r in rows if r.get(aggregate.column) is not None)
    values = [
        r[aggregate.column]
        for r in rows
        if r.get(aggregate.column) is not None
    ]
    if not values:
        return None
    if aggregate.func is AggregateFunc.SUM:
        return sum(values)
    if aggregate.func is AggregateFunc.AVG:
        return sum(values) / len(values)
    if aggregate.func is AggregateFunc.MIN:
        return min(values)
    if aggregate.func is AggregateFunc.MAX:
        return max(values)
    if aggregate.func is AggregateFunc.MEDIAN:
        ordered = sorted(values)
        return ordered[(len(ordered) - 1) // 2]
    raise QueryError(f"unhandled aggregate {aggregate.func}")  # pragma: no cover


def compute_group_aggregate(
    aggregate: Aggregate, group_by: str, rows: List[Row]
) -> List[Row]:
    """Grouped aggregation over filtered rows.

    One result row per distinct group value, ordered by group value
    ascending (NULL groups are excluded, per SQL's WHERE-like treatment of
    an unmatchable key for the share model's provider-side grouping).
    """
    groups: dict = {}
    for row in rows:
        key = row.get(group_by)
        if key is None:
            continue
        groups.setdefault(key, []).append(row)
    out: List[Row] = []
    label = aggregate.func.value
    for key in sorted(groups):
        out.append(
            {group_by: key, label: compute_aggregate(aggregate, groups[key])}
        )
    return out


class PlaintextExecutor:
    """Reference implementation of the query AST over a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- reads ---------------------------------------------------------------

    def execute_select(self, query: Select) -> Union[List[Row], Scalar]:
        table = self.catalog.table(query.table)
        predicate = query.where.bind(table.schema)
        rows = table.select(predicate)
        if query.is_aggregate:
            if (
                query.aggregate.column is not None
                and not table.schema.has_column(query.aggregate.column)
            ):
                raise QueryError(
                    f"no column {query.aggregate.column!r} in {query.table}"
                )
            if query.is_grouped:
                table.schema.column(query.group_by)
                return compute_group_aggregate(
                    query.aggregate, query.group_by, rows
                )
            return compute_aggregate(query.aggregate, rows)
        if query.order_by is not None:
            column = table.schema.column(query.order_by)
            rows.sort(
                key=lambda r: python_value_sort_key(column, r.get(query.order_by)),
                reverse=query.descending,
            )
        if query.limit is not None:
            rows = rows[: query.limit]
        return _project(rows, query.columns, table.schema.column_names)

    def execute_join(self, query: JoinSelect) -> List[Row]:
        left = self.catalog.table(query.left_table)
        right = self.catalog.table(query.right_table)
        left.schema.column(query.left_column)
        right.schema.column(query.right_column)
        # hash join on the key (NULL keys never match, per SQL)
        build: Dict[object, List[Row]] = {}
        for row in right:
            key = row.get(query.right_column)
            if key is not None:
                build.setdefault(key, []).append(row)
        joined: List[Row] = []
        for row in left:
            key = row.get(query.left_column)
            if key is None:
                continue
            for match in build.get(key, ()):
                merged = {
                    f"{query.left_table}.{k}": v for k, v in row.items()
                }
                merged.update(
                    {f"{query.right_table}.{k}": v for k, v in match.items()}
                )
                joined.append(merged)
        filtered = [r for r in joined if query.where.matches(r)]
        if query.columns:
            valid = {
                f"{query.left_table}.{c}" for c in left.schema.column_names
            } | {f"{query.right_table}.{c}" for c in right.schema.column_names}
            unknown = [c for c in query.columns if c not in valid]
            if unknown:
                raise QueryError(f"unknown projection columns {unknown}")
            return [
                {name: row[name] for name in query.columns} for row in filtered
            ]
        return filtered

    # -- writes -----------------------------------------------------------------

    def execute_insert(self, query: Insert) -> int:
        self.catalog.table(query.table).insert(query.row)
        return 1

    def execute_update(self, query: Update) -> int:
        table = self.catalog.table(query.table)
        return table.update_where(query.where.bind(table.schema), query.assignments)

    def execute_delete(self, query: Delete) -> int:
        table = self.catalog.table(query.table)
        return table.delete_where(query.where.bind(table.schema))

    # -- dispatch ------------------------------------------------------------------

    def execute(self, query) -> Union[List[Row], Scalar, int]:
        """Dispatch any AST node to its handler."""
        if isinstance(query, Select):
            return self.execute_select(query)
        if isinstance(query, JoinSelect):
            return self.execute_join(query)
        if isinstance(query, Insert):
            return self.execute_insert(query)
        if isinstance(query, Update):
            return self.execute_update(query)
        if isinstance(query, Delete):
            return self.execute_delete(query)
        raise QueryError(f"unsupported query object {type(query).__name__}")


def _project(
    rows: List[Row], columns, all_columns: List[str]
) -> List[Row]:
    if not columns:
        return rows
    missing = [c for c in columns if c not in all_columns]
    if missing:
        raise QueryError(f"unknown projection columns {missing}")
    return [{c: row[c] for c in columns} for row in rows]


def rows_equal_unordered(left: List[Row], right: List[Row]) -> bool:
    """Order-insensitive row-multiset equality (test helper)."""
    def canon(rows: List[Row]):
        # sort by repr so mixed/None value types never raise on comparison
        return sorted(
            (tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in rows),
            key=repr,
        )

    return canon(left) == canon(right)
