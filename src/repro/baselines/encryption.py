"""The encryption-model database service (Sec. II-A baselines).

One :class:`EncryptedServer` plays the single DAS of the encryption model;
three clients configure it differently:

* :class:`RowEncryptionClient` — pure row encryption (NetDB2-flavoured
  worst case): the server stores only ciphertext blobs, *every* query
  transfers the whole table, and all filtering/aggregation is client-side
  after decryption.
* :class:`BucketizationClient` — Hacıgümüş-style bucket labels per
  searchable column: the server filters to a bucket **superset**, the
  client decrypts and discards false positives.
* :class:`OPEClient` — order-preserving encryption tokens: the server
  filters ranges exactly and can answer MIN/MAX/COUNT server-side, at the
  cost of leaking ciphertext order (the weakness ref [5] flags).

All three run the same query AST as the share model, through the same
simulated network, with cipher work booked to the same cost model — the
apples-to-apples basis of EXP-T1…T4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..client.pipeline import (
    aggregate_rows,
    finish_rows,
    hash_join,
    join_row,
    project_join,
)
from ..errors import ProviderError, QueryError
from ..providers.storage import SortedShareIndex
from ..sim.costmodel import CostRecorder
from ..sim.network import SimulatedNetwork
from ..sqlengine.expression import (
    Between,
    Comparison,
    ComparisonOp,
    StartsWith,
    classify_pushdown,
    conjunction,
)
from ..sqlengine.query import JoinSelect, Select
from ..sqlengine.schema import TableSchema
from ..sqlengine.table import Table
from .bucketization import BucketIndex
from .cipher import FeistelCipher, deserialize_row, serialize_row
from .ope import OrderPreservingEncryption

Row = Dict[str, object]

CLIENT_NAME = "enc-client"
SERVER_NAME = "ENCDAS"


class _EncTable:
    """Server-side storage: blobs + per-column token indexes."""

    def __init__(self, name: str, index_modes: Dict[str, str]) -> None:
        self.name = name
        self.blobs: Dict[int, bytes] = {}
        self.index_modes = dict(index_modes)
        self.hash_indexes: Dict[str, Dict[int, List[int]]] = {
            column: {} for column, mode in index_modes.items() if mode == "hash"
        }
        self.sorted_indexes: Dict[str, SortedShareIndex] = {
            column: SortedShareIndex(column)
            for column, mode in index_modes.items()
            if mode == "sorted"
        }

    def insert(self, row_id: int, blob: bytes, tokens: Dict[str, Optional[int]]):
        if row_id in self.blobs:
            raise ProviderError(f"table {self.name}: duplicate row id {row_id}")
        self.blobs[row_id] = blob
        for column, token in tokens.items():
            if token is None:
                continue
            if column in self.hash_indexes:
                self.hash_indexes[column].setdefault(token, []).append(row_id)
            elif column in self.sorted_indexes:
                self.sorted_indexes[column].insert(token, row_id)
            else:
                raise ProviderError(
                    f"table {self.name}: column {column!r} is not indexed"
                )


class EncryptedServer:
    """The single service provider of the encryption model."""

    def __init__(self, cost: Optional[CostRecorder] = None) -> None:
        self.name = SERVER_NAME
        self.cost = cost or CostRecorder(SERVER_NAME)
        self._tables: Dict[str, _EncTable] = {}

    def handle(self, method: str, request: Dict) -> Dict:
        handler = getattr(self, f"_rpc_{method}", None)
        if handler is None:
            raise ProviderError(f"{self.name}: unknown method {method!r}")
        return handler(request)

    def _table(self, name: str) -> _EncTable:
        try:
            return self._tables[name]
        except KeyError:
            raise ProviderError(f"no such table {name!r}") from None

    def _rpc_create_table(self, request: Dict) -> Dict:
        name = request["table"]
        if name in self._tables:
            raise ProviderError(f"table {name!r} already exists")
        self._tables[name] = _EncTable(name, request["index_modes"])
        return {"ok": True}

    def _rpc_insert_many(self, request: Dict) -> Dict:
        table = self._table(request["table"])
        for row_id, blob, tokens in request["rows"]:
            table.insert(row_id, blob, tokens)
        return {"inserted": len(request["rows"])}

    def _rpc_select(self, request: Dict) -> Dict:
        table = self._table(request["table"])
        row_ids = self._matching_row_ids(table, request.get("conditions") or [])
        return {"rows": [[rid, table.blobs[rid]] for rid in row_ids]}

    def _rpc_count(self, request: Dict) -> Dict:
        table = self._table(request["table"])
        return {
            "count": len(
                self._matching_row_ids(table, request.get("conditions") or [])
            )
        }

    def _rpc_extreme(self, request: Dict) -> Dict:
        """MIN/MAX/MEDIAN by token order (sorted/OPE indexes only)."""
        table = self._table(request["table"])
        column = request["column"]
        index = table.sorted_indexes.get(column)
        if index is None:
            raise QueryError(
                f"column {column!r} has no order-preserving index"
            )
        row_ids = self._matching_row_ids(table, request.get("conditions") or [])
        in_set = set(row_ids)
        ordered = [rid for _, rid in index.entries_in_order() if rid in in_set]
        self.cost.record("compare", len(index))
        if not ordered:
            return {"row": None, "count": 0}
        func = request["func"]
        if func == "min":
            chosen = ordered[0]
        elif func == "max":
            chosen = ordered[-1]
        elif func == "median":
            chosen = ordered[(len(ordered) - 1) // 2]
        else:
            raise QueryError(f"extreme does not support {func!r}")
        return {"row": [chosen, table.blobs[chosen]], "count": len(ordered)}

    def _rpc_join(self, request: Dict) -> Dict:
        left = self._table(request["left"])
        right = self._table(request["right"])
        left_ids = self._matching_row_ids(left, request.get("left_conditions") or [])
        right_ids = self._matching_row_ids(
            right, request.get("right_conditions") or []
        )
        left_tokens = self._token_map(left, request["left_column"], left_ids)
        right_tokens = self._token_map(right, request["right_column"], right_ids)
        build: Dict[int, List[int]] = {}
        for rid, token in right_tokens.items():
            build.setdefault(token, []).append(rid)
        self.cost.record("compare", len(left_ids) + len(right_ids))
        rows = []
        for lid, token in left_tokens.items():
            for rid in build.get(token, ()):
                rows.append([lid, rid, left.blobs[lid], right.blobs[rid]])
        return {"rows": rows}

    def _token_map(
        self, table: _EncTable, column: str, row_ids: List[int]
    ) -> Dict[int, int]:
        """row_id → token for the join column (hash or sorted index)."""
        tokens: Dict[int, int] = {}
        if column in table.hash_indexes:
            for token, rids in table.hash_indexes[column].items():
                for rid in rids:
                    tokens[rid] = token
        elif column in table.sorted_indexes:
            for token, rid in table.sorted_indexes[column].entries_in_order():
                tokens[rid] = token
        else:
            raise QueryError(
                f"join column {column!r} has no token index; the row-"
                "encryption model must join at the client"
            )
        wanted = set(row_ids)
        return {rid: token for rid, token in tokens.items() if rid in wanted}

    def _matching_row_ids(self, table: _EncTable, conditions: List[Dict]) -> List[int]:
        if not conditions:
            return sorted(table.blobs)
        result: Optional[set] = None
        for condition in conditions:
            matched = set(self._condition_row_ids(table, condition))
            result = matched if result is None else result & matched
            if not result:
                return []
        return sorted(result)

    def _condition_row_ids(self, table: _EncTable, condition: Dict) -> List[int]:
        column = condition["column"]
        op = condition["op"]
        if op == "eq":
            index = table.hash_indexes.get(column)
            if index is not None:
                self.cost.record("compare", 1)
                return index.get(condition["token"], [])
            sorted_index = table.sorted_indexes.get(column)
            if sorted_index is not None:
                self.cost.record("compare", sorted_index.comparisons_for_range())
                return sorted_index.equal_row_ids(condition["token"])
            raise QueryError(f"column {column!r} is not indexed")
        if op == "in":
            index = table.hash_indexes.get(column)
            if index is None:
                raise QueryError(f"column {column!r} has no hash index")
            self.cost.record("compare", len(condition["tokens"]))
            out: List[int] = []
            for token in condition["tokens"]:
                out.extend(index.get(token, []))
            return out
        if op == "range":
            sorted_index = table.sorted_indexes.get(column)
            if sorted_index is None:
                raise QueryError(
                    f"column {column!r} has no order-preserving index; "
                    "ranges require OPE"
                )
            self.cost.record("compare", sorted_index.comparisons_for_range())
            return sorted_index.range_row_ids(condition["low"], condition["high"])
        raise QueryError(f"unknown condition op {op!r}")


class _BaseEncryptedClient:
    """Shared machinery of the three encryption-model clients."""

    #: subclass hook: "none" | "bucket" | "ope"
    index_kind = "none"

    def __init__(
        self,
        key: bytes = b"\x13" * 32,
        network: Optional[SimulatedNetwork] = None,
        n_buckets: int = 32,
    ) -> None:
        self.cipher = FeistelCipher(key)
        self.key = key
        self.network = network or SimulatedNetwork()
        self.server = EncryptedServer()
        self.cost = CostRecorder(CLIENT_NAME)
        self.n_buckets = n_buckets
        self._schemas: Dict[str, TableSchema] = {}
        self._codecs: Dict[Tuple[str, str], object] = {}
        self._bucket_indexes: Dict[Tuple[str, str], BucketIndex] = {}
        self._ope_ciphers: Dict[Tuple[str, str], OrderPreservingEncryption] = {}
        self._next_row_id: Dict[str, int] = {}

    # -- RPC with byte accounting -------------------------------------------------

    def _call(self, method: str, request: Dict) -> Dict:
        self.network.send(CLIENT_NAME, SERVER_NAME, {"method": method, **request})
        response = self.server.handle(method, request)
        self.network.send(SERVER_NAME, CLIENT_NAME, response)
        return response

    # -- outsourcing ------------------------------------------------------------------

    def outsource_table(self, table: Table) -> int:
        schema = table.schema
        self._schemas[schema.name] = schema
        self._next_row_id[schema.name] = 0
        index_modes: Dict[str, str] = {}
        for column in schema.columns:
            self._codecs[(schema.name, column.name)] = column.codec()
            if not column.searchable or self.index_kind == "none":
                continue
            domain = column.codec().domain()
            label = column.effective_domain_label(schema.name)
            if self.index_kind == "bucket":
                index_modes[column.name] = "hash"
                self._bucket_indexes[(schema.name, column.name)] = BucketIndex(
                    self.key, domain, self.n_buckets, label=label
                )
            else:  # ope
                index_modes[column.name] = "sorted"
                self._ope_ciphers[(schema.name, column.name)] = (
                    OrderPreservingEncryption(
                        self.key + label.encode("utf-8"), domain
                    )
                )
        self._call(
            "create_table", {"table": schema.name, "index_modes": index_modes}
        )
        rows = table.rows()
        payload = []
        for row in rows:
            row_id = self._next_row_id[schema.name]
            self._next_row_id[schema.name] += 1
            payload.append(
                [row_id, self._encrypt_row(schema.name, row),
                 self._tokens_for_row(schema.name, row)]
            )
        if payload:
            self._call("insert_many", {"table": schema.name, "rows": payload})
        return len(rows)

    def _encrypt_row(self, table_name: str, row: Row) -> bytes:
        return self.cipher.encrypt_bytes(serialize_row(row), cost=self.cost)

    def _decrypt_row(self, blob: bytes) -> Row:
        return deserialize_row(self.cipher.decrypt_bytes(blob, cost=self.cost))

    def _tokens_for_row(self, table_name: str, row: Row) -> Dict[str, Optional[int]]:
        tokens: Dict[str, Optional[int]] = {}
        for (tname, column), bucket in self._bucket_indexes.items():
            if tname != table_name:
                continue
            value = row.get(column)
            tokens[column] = (
                None
                if value is None
                else bucket.label_of_value(
                    self._encode(table_name, column, value), cost=self.cost
                )
            )
        for (tname, column), ope in self._ope_ciphers.items():
            if tname != table_name:
                continue
            value = row.get(column)
            tokens[column] = (
                None
                if value is None
                else ope.encrypt(
                    self._encode(table_name, column, value), cost=self.cost
                )
            )
        return tokens

    def _encode(self, table_name: str, column: str, value) -> int:
        return self._codecs[(table_name, column)].encode(value)

    # -- condition compilation -----------------------------------------------------------

    def _compile_conditions(
        self, table_name: str, predicate
    ) -> Tuple[List[Dict], object]:
        """(server conditions, residual predicate).

        The residual always re-checks pushed conjuncts too — bucket filters
        are supersets and the decrypt-then-filter step is what guarantees
        exactness in the encryption model.
        """
        schema = self._schemas[table_name]
        bound = predicate.bind(schema)
        if self.index_kind == "none":
            return [], bound
        pushdown, residual_parts = classify_pushdown(bound, schema)
        conditions: List[Dict] = []
        for part in pushdown:
            condition = self._compile_one(table_name, part)
            if condition is None:
                residual_parts.append(part)
            else:
                conditions.append(condition)
                residual_parts.append(part)  # decrypt-then-filter re-check
        return conditions, conjunction(residual_parts)

    def _compile_one(self, table_name: str, part) -> Optional[Dict]:
        column_name = next(iter(part.referenced_columns()))
        codec = self._codecs[(table_name, column_name)]
        try:
            interval = _plain_interval(part, codec)
        except Exception:
            return None
        if interval is None:
            return None
        low, high = interval
        if self.index_kind == "bucket":
            bucket = self._bucket_indexes.get((table_name, column_name))
            if bucket is None:
                return None
            if low == high:
                return {
                    "column": column_name,
                    "op": "eq",
                    "token": bucket.label_of_value(low, cost=self.cost),
                }
            return {
                "column": column_name,
                "op": "in",
                "tokens": bucket.labels_for_range(low, high, cost=self.cost),
            }
        ope = self._ope_ciphers.get((table_name, column_name))
        if ope is None:
            return None
        c_low, c_high = ope.encrypt_range(low, high, cost=self.cost)
        if low == high:
            return {"column": column_name, "op": "eq", "token": c_low}
        return {"column": column_name, "op": "range", "low": c_low, "high": c_high}

    # -- reads ---------------------------------------------------------------------------------

    def select(self, query: Select) -> Union[List[Row], object]:
        schema = self._schemas[query.table]
        conditions, residual = self._compile_conditions(query.table, query.where)
        if query.is_aggregate:
            return self._aggregate(query, conditions, residual)
        response = self._call(
            "select", {"table": query.table, "conditions": conditions}
        )
        rows = [self._decrypt_row(blob) for _, blob in response["rows"]]
        rows = [row for row in rows if residual.matches(row)]
        for name in query.columns:
            schema.column(name)
        return finish_rows(schema, query, rows)

    def _aggregate(self, query: Select, conditions, residual):
        # the encryption model can only aggregate server-side when the
        # index is exact (OPE) and the whole predicate was pushed; bucket
        # supersets and row encryption always pay decrypt-everything
        response = self._call(
            "select", {"table": query.table, "conditions": conditions}
        )
        rows = [self._decrypt_row(blob) for _, blob in response["rows"]]
        rows = [row for row in rows if residual.matches(row)]
        return aggregate_rows(query, rows)

    def join(self, query: JoinSelect) -> List[Row]:
        left_pred, right_pred, residual = _split_join_where(query)
        left_conditions, left_residual = self._compile_conditions(
            query.left_table, left_pred
        )
        right_conditions, right_residual = self._compile_conditions(
            query.right_table, right_pred
        )
        if not self._server_joinable(query):
            left_rows = [
                self._decrypt_row(blob)
                for _, blob in self._call(
                    "select",
                    {"table": query.left_table, "conditions": left_conditions},
                )["rows"]
            ]
            right_rows = [
                self._decrypt_row(blob)
                for _, blob in self._call(
                    "select",
                    {"table": query.right_table, "conditions": right_conditions},
                )["rows"]
            ]
            self.cost.record("compare", len(left_rows) + len(right_rows))
            return hash_join(
                query,
                [row for row in left_rows if left_residual.matches(row)],
                [row for row in right_rows if right_residual.matches(row)],
                residual,
            )
        response = self._call(
            "join",
            {
                "left": query.left_table,
                "right": query.right_table,
                "left_column": query.left_column,
                "right_column": query.right_column,
                "left_conditions": left_conditions,
                "right_conditions": right_conditions,
            },
        )
        out: List[Row] = []
        for _, _, lblob, rblob in response["rows"]:
            lrow = self._decrypt_row(lblob)
            rrow = self._decrypt_row(rblob)
            if not left_residual.matches(lrow) or not right_residual.matches(rrow):
                continue
            if (
                lrow.get(query.left_column) is None
                or lrow.get(query.left_column) != rrow.get(query.right_column)
            ):
                continue  # bucket-token false positives
            merged = join_row(query, lrow, rrow)
            if residual.matches(merged):
                out.append(merged)
        return project_join(query, out)

    def _server_joinable(self, query: JoinSelect) -> bool:
        if self.index_kind == "none":
            return False
        left_key = (query.left_table, query.left_column)
        right_key = (query.right_table, query.right_column)
        if self.index_kind == "bucket":
            left = self._bucket_indexes.get(left_key)
            right = self._bucket_indexes.get(right_key)
            return (
                left is not None
                and right is not None
                and left.label == right.label
                and left.n_buckets == right.n_buckets
            )
        left_ope = self._ope_ciphers.get(left_key)
        right_ope = self._ope_ciphers.get(right_key)
        return (
            left_ope is not None
            and right_ope is not None
            and left_ope.key == right_ope.key
            and (left_ope.domain.lo, left_ope.domain.hi)
            == (right_ope.domain.lo, right_ope.domain.hi)
        )

    def reset_accounting(self) -> None:
        self.network.reset()
        self.cost.reset()
        self.server.cost.reset()


class RowEncryptionClient(_BaseEncryptedClient):
    """Pure row encryption: no server-side filtering at all."""

    index_kind = "none"


class BucketizationClient(_BaseEncryptedClient):
    """Hacıgümüş-style bucket labels: superset filtering."""

    index_kind = "bucket"


class OPEClient(_BaseEncryptedClient):
    """Order-preserving encryption tokens: exact server-side ranges."""

    index_kind = "ope"


def _plain_interval(part, codec) -> Optional[Tuple[int, int]]:
    """Inclusive encoded interval of a pushable conjunct (or None)."""
    domain = codec.domain()
    if isinstance(part, StartsWith):
        if not hasattr(codec, "prefix_range"):
            return None
        return codec.prefix_range(part.prefix)
    if isinstance(part, Between):
        return codec.encode(part.low), codec.encode(part.high)
    assert isinstance(part, Comparison)
    encoded = codec.encode(part.value)
    if part.op is ComparisonOp.EQ:
        return encoded, encoded
    if part.op is ComparisonOp.LT:
        return domain.lo, encoded - 1
    if part.op is ComparisonOp.LE:
        return domain.lo, encoded
    if part.op is ComparisonOp.GT:
        return encoded + 1, domain.hi
    if part.op is ComparisonOp.GE:
        return encoded, domain.hi
    return None


def _split_join_where(query: JoinSelect):
    """Reuse the share client's join-predicate splitter."""
    from ..client.rewriter import split_join_predicate

    return split_join_predicate(
        query.where, query.left_table, query.right_table
    )
