"""The pure steps of the read pipeline: plan a SELECT, finish its rows.

Every read runs plan → fetch → finish.  The fetch step talks to the
providers and lives on :class:`~repro.client.datasource.DataSource`; the
steps here are pure functions of the schema and the query, shared by the
unsharded front end and :class:`~repro.service.sharding.ShardRouter`:

* :func:`plan_select` validates a SELECT once and decides once how it
  runs — provably empty, provider-side aggregate, provider-side GROUP BY,
  or fetch rows (aggregating at the client when needed).  Execution and
  ``explain()`` both read this one decision.
* :func:`finish_rows`, :func:`aggregate_rows` and :func:`hash_join` are
  the client-side tail: sort/LIMIT/projection, client aggregation, and
  the hash join over already-reconstructed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.scheme import TableSharing
from ..errors import QueryError
from ..sqlengine.executor import compute_aggregate, compute_group_aggregate
from ..sqlengine.expression import Predicate
from ..sqlengine.query import AggregateFunc, JoinSelect, Select
from ..sqlengine.schema import TableSchema, python_value_sort_key
from .rewriter import RewrittenPredicate

Row = Dict[str, object]

#: aggregates a provider answers by nominating one row in share order,
#: which needs an order-preserving column
ORDER_BASED = (AggregateFunc.MIN, AggregateFunc.MAX, AggregateFunc.MEDIAN)


@dataclass(frozen=True)
class ReadPlan:
    """How one SELECT executes.

    ``method`` is the read RPC execution sends: ``"aggregate"`` or
    ``"aggregate_group"`` (providers compute partials), ``"select"``
    (fetch matching rows), or ``None`` when the predicate is provably
    empty and no RPC is needed.  ``push_order``/``push_limit`` are the
    ORDER BY column and LIMIT shipped with a row fetch.
    """

    rewritten: RewrittenPredicate
    method: Optional[str]
    push_order: Optional[str] = None
    push_limit: Optional[int] = None


def validate_select(schema: TableSchema, query: Select) -> None:
    """Reject unknown columns and non-numeric SUM/AVG before any RPC."""
    for name in query.columns:
        schema.column(name)
    for name in (query.order_by, query.group_by):
        if name is not None:
            schema.column(name)
    aggregate = query.aggregate
    if aggregate is not None and aggregate.column is not None:
        column = schema.column(aggregate.column)
        if aggregate.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            if not column.is_numeric():
                raise QueryError(
                    f"{aggregate.func.value.upper()}({aggregate.column}) "
                    "requires a numeric column"
                )


def plan_select(
    sharing: TableSharing,
    query: Select,
    rewritten: RewrittenPredicate,
    pushdown: bool = True,
) -> ReadPlan:
    """Validate ``query`` and decide how it executes.

    ``pushdown=False`` keeps all computation at the client: aggregates
    fetch rows and ORDER BY/LIMIT are not shipped.  Verified, robust and
    audited reads plan this way — provider-computed partials cannot be
    cross-checked, reconstructed rows can.
    """
    validate_select(sharing.schema, query)
    if rewritten.provably_empty:
        return ReadPlan(rewritten, None)
    residual = rewritten.has_residual
    aggregate = query.aggregate
    if aggregate is not None:
        # partial aggregation is only possible when the whole predicate
        # was pushed down; a client-side residual forces a row fetch
        pushable = (
            pushdown
            and not residual
            and (
                aggregate.func not in ORDER_BASED
                or sharing.is_searchable(aggregate.column)
            )
        )
        if pushable and not query.is_grouped:
            return ReadPlan(rewritten, "aggregate")
        if pushable and sharing.is_searchable(query.group_by):
            return ReadPlan(rewritten, "aggregate_group")
        return ReadPlan(rewritten, "select")
    if not pushdown:
        return ReadPlan(rewritten, "select")
    push_order = (
        query.order_by
        if query.order_by is not None and sharing.is_searchable(query.order_by)
        else None
    )
    # LIMIT ships only when the client will neither filter (a residual
    # could strip pushed-down rows below the count) nor sort afterwards
    push_limit = (
        query.limit
        if not residual and (query.order_by is None or push_order is not None)
        else None
    )
    return ReadPlan(rewritten, "select", push_order, push_limit)


def explain_strategy(query: Select, plan: ReadPlan) -> str:
    """The human-readable strategy of a planned SELECT."""
    if plan.method is None:
        return "provably empty: answered without a provider RPC"
    if plan.method == "aggregate":
        return "provider-side partial aggregation"
    if plan.method == "aggregate_group":
        return "provider-grouped partial aggregation"
    if query.is_grouped:
        return "fetch matching rows, group at the client"
    if query.is_aggregate:
        return "fetch matching rows, aggregate at the client"
    rewritten = plan.rewritten
    parts = [
        "provider share-index filter" if rewritten.intervals
        else "provider full scan"
    ]
    if rewritten.has_residual:
        parts.append("client residual filter")
    if query.order_by is not None:
        parts.append(
            "provider share-order sort" if plan.push_order else "client sort"
        )
    if query.limit is not None:
        where = "at providers" if plan.push_limit is not None else "at client"
        parts.append(f"limit {query.limit} {where}")
    return " + ".join(parts)


# ------------------------------------------------------------------ finish --


def empty_result(query: Select):
    """The answer of a SELECT whose predicate matches nothing."""
    if query.is_aggregate and not query.is_grouped:
        return compute_aggregate(query.aggregate, [])
    return []


def aggregate_rows(query: Select, rows: List[Row]):
    """Aggregate (or group) already-filtered rows at the client."""
    if query.is_grouped:
        return compute_group_aggregate(query.aggregate, query.group_by, rows)
    return compute_aggregate(query.aggregate, rows)


def order_rows(
    schema: TableSchema,
    query: Select,
    items: List,
    row_of: Callable = lambda item: item,
) -> List:
    """Client ORDER BY and LIMIT over rows (or items carrying a row)."""
    if query.order_by is not None:
        column = schema.column(query.order_by)
        name = query.order_by
        items.sort(
            key=lambda item: python_value_sort_key(column, row_of(item).get(name)),
            reverse=query.descending,
        )
    if query.limit is not None:
        items = items[: query.limit]
    return items


def finish_rows(schema: TableSchema, query: Select, rows: List[Row]) -> List[Row]:
    """Client sort, LIMIT and projection: the tail of every row read."""
    rows = order_rows(schema, query, rows)
    if query.columns:
        rows = [{name: row[name] for name in query.columns} for row in rows]
    return rows


def check_join_columns(
    query: JoinSelect, left: TableSchema, right: TableSchema
) -> None:
    """Reject unknown join key or projection columns before any RPC."""
    left.column(query.left_column)
    right.column(query.right_column)
    valid = {f"{query.left_table}.{c}" for c in left.column_names}
    valid.update(f"{query.right_table}.{c}" for c in right.column_names)
    unknown = [c for c in query.columns if c not in valid]
    if unknown:
        raise QueryError(f"unknown projection columns {unknown}")


def join_row(query: JoinSelect, left_row: Row, right_row: Row) -> Row:
    """One joined row with table-qualified column names."""
    merged = {f"{query.left_table}.{k}": v for k, v in left_row.items()}
    merged.update({f"{query.right_table}.{k}": v for k, v in right_row.items()})
    return merged


def project_join(query: JoinSelect, rows: List[Row]) -> List[Row]:
    if not query.columns:
        return rows
    return [{name: row[name] for name in query.columns} for row in rows]


def hash_join(
    query: JoinSelect,
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    residual: Predicate,
) -> List[Row]:
    """Equi-join reconstructed rows at the client (NULL keys never match)."""
    build: Dict[object, List[Row]] = {}
    for row in right_rows:
        key = row.get(query.right_column)
        if key is not None:
            build.setdefault(key, []).append(row)
    joined: List[Row] = []
    for row in left_rows:
        key = row.get(query.left_column)
        if key is None:
            continue
        for match in build.get(key, ()):
            merged = join_row(query, row, match)
            if residual.matches(merged):
                joined.append(merged)
    return project_join(query, joined)
