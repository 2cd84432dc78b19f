"""The data source: the client of the outsourced database (Sec. III).

A :class:`DataSource` owns the secret material, outsources plaintext
tables as shares across the provider cluster, rewrites queries per
provider (Sec. V-A), reconstructs results, and performs updates
(Sec. V-C).  It deliberately stores **no data** — only schemas, secrets,
and a per-table row-id counter — matching the paper's footnote 1 that
storing the sharing polynomials "would amount to storing the entire data
itself".

Usage::

    cluster = ProviderCluster(n_providers=5, threshold=3)
    source = DataSource(cluster, seed=7)
    source.outsource_table(employees_table)
    rows = source.sql("SELECT name FROM Employees WHERE salary BETWEEN 10000 AND 40000")
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from .. import telemetry
from ..core.order_preserving import OrderPreservingScheme
from ..core.scheme import ShareRow, TableSharing
from ..core.secrets import ClientSecrets, generate_client_secrets
from ..errors import (
    IntegrityError,
    QueryError,
    QuorumError,
    SchemaError,
    UnsupportedQueryError,
)
from ..providers.cluster import ProviderCluster
from ..sim.costmodel import CostRecorder
from ..sim.rng import DeterministicRNG
from ..sqlengine.catalog import Catalog
from ..sqlengine.expression import Predicate, TruePredicate
from ..sqlengine.query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Insert,
    JoinSelect,
    Select,
    Update,
    resolve_assignments,
)
from ..sqlengine.schema import ColumnType, TableSchema
from ..sqlengine.sqlparser import parse_sql
from ..sqlengine.table import Table
from .pipeline import (
    ReadPlan,
    aggregate_rows,
    check_join_columns,
    empty_result,
    explain_strategy,
    finish_rows,
    hash_join,
    join_row,
    order_rows,
    plan_select,
    project_join,
)
from .reconstruct import (
    align_by_row_id,
    consistent_scalar,
    reconstruct_checked,
    reconstruct_rows,
    reconstruct_single_rows,
    rows_from_responses,
)
from .rewriter import (
    RewrittenPredicate,
    rewrite_predicate,
    split_join_predicate,
)
from .rowcache import RowCache

Row = Dict[str, object]

#: Read policies — how a read picks its providers and decodes their
#: shares (see :meth:`DataSource._read`).  ``select`` and ``join`` read
#: PLAIN, or CHECKED under ``verified_reads``; ``select_robust`` reads
#: ROBUST; ``select_verified`` reads AUDITED.
PLAIN, CHECKED, ROBUST, AUDITED = "plain", "checked", "robust", "audited"

#: RPC methods that mutate provider row state.  ``DataSource._broadcast``
#: refuses these unless the call came through :meth:`DataSource._mutate`
#: (or the transaction layer, which uses the cluster directly and carries
#: its own logged epochs) — the choke point that makes forgetting a
#: plan-cache/row-cache invalidation structurally impossible (ISSUE-8).
MUTATING_RPCS = frozenset(
    {
        "insert",
        "insert_many",
        "update_rows",
        "delete_rows",
        "increment_rows",
        "merge_table",
        "txn_prepare",
        "txn_commit",
        "txn_abort",
    }
)


class DataSource:
    """Client front end over a provider cluster.

    Parameters
    ----------
    cluster:
        The provider cluster (carries ``n`` and the threshold ``k``).
    seed:
        Seed for secret generation and sharing randomness.
    secrets:
        Explicit secret material (e.g. the Figure 1 evaluation points);
        generated from the seed when omitted.
    client_join_fallback:
        When True, joins that cannot run provider-side (different domains,
        non-searchable keys — the case Sec. V-A declares unsupported) fall
        back to fetching both sides and joining at the client.  Default
        False: such queries raise :class:`UnsupportedQueryError`, matching
        the paper's stated capability boundary.
    verified_reads:
        When True, every read requests ``k + read_redundancy`` shares and
        cross-checks them by redundant interpolation: a provider whose
        shares (or row set) disagree with the majority is *blamed*,
        quarantined in the cluster's health tracker, and the query is
        transparently re-issued without it.  Results are correct with up
        to ⌊(m−k)/2⌋ tamperers among the m responders.
    read_redundancy:
        Extra shares beyond k that verified reads request.  ``None`` (the
        default) means "every live provider" — maximum detection power.
    failover:
        When True (the default), short read rounds re-dispatch their
        missing sub-requests to spare live providers instead of raising
        :class:`QuorumError` (see :meth:`ProviderCluster.broadcast`).
    """

    def __init__(
        self,
        cluster: ProviderCluster,
        seed: int = 0,
        secrets: Optional[ClientSecrets] = None,
        client_join_fallback: bool = False,
        audit: Optional[object] = None,
        namespace: str = "",
        verified_reads: bool = False,
        read_redundancy: Optional[int] = None,
        failover: bool = True,
    ) -> None:
        self.cluster = cluster
        self.secrets = secrets or generate_client_secrets(
            cluster.n_providers, seed
        )
        if self.secrets.n_providers != cluster.n_providers:
            raise SchemaError(
                f"secrets cover {self.secrets.n_providers} providers but the "
                f"cluster has {cluster.n_providers}"
            )
        self.threshold = cluster.threshold
        self.client_join_fallback = client_join_fallback
        self.verified_reads = verified_reads
        if read_redundancy is not None and read_redundancy < 1:
            raise SchemaError(
                f"read_redundancy must be >= 1 (got {read_redundancy}); "
                "verified reads need at least one share beyond k to "
                "cross-check"
            )
        self.read_redundancy = read_redundancy
        self.failover = failover
        #: optional :class:`~repro.trust.auditing.AuditRegistry`; when set,
        #: every write is mirrored into it and verified reads are available
        self.audit = audit
        #: multi-tenancy: a DBSP serves many customers (Sec. I), so each
        #: client's tables live under its namespace at the providers.
        #: Clients with different namespaces (and their own secrets) share
        #: a cluster without name collisions — and without readability:
        #: another tenant's shares are useless without its secret points.
        if namespace and not namespace.replace("_", "").replace("-", "").isalnum():
            raise SchemaError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self.cost = CostRecorder("client")
        self._rng = DeterministicRNG(seed, "datasource")
        self._sharings: Dict[str, TableSharing] = {}
        self._op_registry: Dict[str, OrderPreservingScheme] = {}
        self._next_row_id: Dict[str, int] = {}
        #: per-table mutation epochs: every write path bumps its table's
        #: epoch (and secret rotation bumps all), so cached query plans —
        #: keyed on (statement, epoch) by :mod:`repro.service.plancache` —
        #: can never be replayed against state they were not rewritten for
        self._table_epochs: Dict[str, int] = {}
        #: optional :class:`~repro.service.plancache.PlanCache`; installed
        #: by the service layer, consulted by :meth:`_rewrite`
        self.plan_cache: Optional[object] = None
        #: epoch-keyed reconstructed-row cache (:mod:`repro.client.rowcache`);
        #: consulted only by the plain read path — verified and robust reads
        #: always go to the wire
        self.row_cache = RowCache()
        self._row_id_lock = threading.Lock()
        # thread-local guard proving a mutating RPC came through _mutate
        self._mutation = threading.local()
        if audit is not None and getattr(audit, "namespace", "") == "":
            audit.namespace = namespace

    # ----------------------------------------------------------- namespacing --

    def physical_name(self, table_name: str) -> str:
        """The provider-side name of a logical table (namespace-qualified)."""
        if self.namespace:
            return f"{self.namespace}::{table_name}"
        return table_name

    def _qualify(self, request: Dict) -> Dict:
        """Rewrite a logical RPC payload to physical table names."""
        if not self.namespace:
            return request
        out = dict(request)
        for key in ("table", "left", "right", "into"):
            if key in out:
                out[key] = self.physical_name(out[key])
        return out

    def _broadcast(self, method: str, request_builder, **kwargs):
        if method in MUTATING_RPCS and not getattr(self._mutation, "active", 0):
            raise QueryError(
                f"mutating RPC {method!r} must go through DataSource._mutate "
                "(the epoch choke point) — direct broadcasts would leave the "
                "plan cache and row cache holding entries for dead state"
            )
        return self.cluster.broadcast(
            method, lambda i: self._qualify(request_builder(i)), **kwargs
        )

    def _call_one(self, provider_index: int, method: str, request: Dict):
        return self.cluster.call_one(
            provider_index, method, self._qualify(request)
        )

    def _mutate(
        self,
        table_name: str,
        method: str,
        request_builder,
        *,
        provider_indexes: Optional[List[int]] = None,
        epoch: Optional[int] = None,
        **kwargs,
    ):
        """The single write choke point (ISSUE-8 satellite).

        Every row-mutating RPC funnels through here: the payload is
        stamped with the table's next mutation epoch (providers tag their
        undo history with it, which is what makes ``as_of_epoch`` reads
        possible), the round is broadcast to the live write targets, and
        the epoch is bumped — invalidating the plan cache and row cache —
        even when the round fails partway (some providers may have
        applied, so cached state must be assumed dead).  ``_broadcast``
        refuses mutating RPCs issued around this method, so no future
        write path can forget cache invalidation.
        """
        if epoch is None:
            epoch = self.table_epoch(table_name) + 1
        stamped = epoch

        def build(i: int) -> Dict:
            payload = dict(request_builder(i))
            payload.setdefault("epoch", stamped)
            return payload

        targets = (
            provider_indexes
            if provider_indexes is not None
            else self.cluster.write_targets()
        )
        self._mutation.active = getattr(self._mutation, "active", 0) + 1
        try:
            return self._broadcast(
                method, build, provider_indexes=targets, **kwargs
            )
        finally:
            self._mutation.active -= 1
            self.bump_table_epoch(table_name, to=stamped)

    # ------------------------------------------------------------------ DDL --

    def create_table(self, schema: TableSchema) -> None:
        """Register a schema and create the share table at every provider."""
        if schema.name in self._sharings:
            raise SchemaError(f"table {schema.name!r} already outsourced")
        sharing = TableSharing(
            schema, self.secrets, self.threshold, self._rng, self._op_registry
        )
        searchable = [c.name for c in schema.columns if c.searchable]
        self._broadcast(
            "create_table",
            lambda i: {
                "table": schema.name,
                "columns": schema.column_names,
                "searchable": searchable,
            },
            provider_indexes=self.cluster.write_targets(),
        )
        self._sharings[schema.name] = sharing
        self._next_row_id[schema.name] = 0
        if self.audit is not None:
            self.audit.on_create_table(schema.name)

    def restore_table(self, schema: TableSchema, next_row_id: int) -> None:
        """Re-register an already-outsourced table after a client restart.

        Unlike :meth:`create_table` this performs no provider RPC — the
        providers already hold the shares; only the client's sharing
        machinery (rebuilt deterministically from its secrets) and the
        row-id counter are restored.  Used by :mod:`repro.persistence`.
        """
        if schema.name in self._sharings:
            raise SchemaError(f"table {schema.name!r} already registered")
        if next_row_id < 0:
            raise SchemaError("next_row_id must be non-negative")
        self._sharings[schema.name] = TableSharing(
            schema, self.secrets, self.threshold, self._rng, self._op_registry
        )
        self._next_row_id[schema.name] = next_row_id
        if self.audit is not None:
            self.audit.on_create_table(schema.name)

    def outsource_table(self, table: Table, batch_size: int = 500) -> int:
        """Create the table and upload every row as shares; returns count."""
        self.create_table(table.schema)
        rows = table.rows()
        for start in range(0, len(rows), batch_size):
            self.insert_many(table.name, rows[start:start + batch_size])
        return len(rows)

    def outsource_catalog(self, catalog: Catalog) -> Dict[str, int]:
        """Outsource every table of a catalog; returns per-table row counts."""
        return {
            table.name: self.outsource_table(table) for table in catalog
        }

    def sharing(self, table_name: str) -> TableSharing:
        try:
            return self._sharings[table_name]
        except KeyError:
            raise SchemaError(
                f"table {table_name!r} has not been outsourced"
            ) from None

    def table_names(self) -> List[str]:
        return sorted(self._sharings)

    # ------------------------------------------------------- epochs & plans --

    def table_epoch(self, table_name: str) -> int:
        """The table's mutation epoch (bumped by every write path)."""
        return self._table_epochs.get(table_name, 0)

    def bump_table_epoch(self, table_name: str, to: Optional[int] = None) -> int:
        """Advance a table's epoch, invalidating cached plans and rows.

        Every write path funnels through here (insert/update/delete,
        increments, lazy-flush, resync, rotation, and the transaction
        layer's group-commit apply), so this is the single point where
        *all* epoch-keyed caches — the service plan cache and the
        reconstructed-row cache — learn that their entries for the table
        are dead.  ``to`` sets an explicit target epoch (the transaction
        layer applies WAL-logged epochs; recovery restores high-water
        marks); epochs never move backwards.
        """
        current = self._table_epochs.get(table_name, 0)
        epoch = current + 1 if to is None else max(to, current)
        self._table_epochs[table_name] = epoch
        cache = self.plan_cache
        if cache is not None:
            cache.invalidate(table_name)
        self.row_cache.invalidate(table_name)
        return epoch

    def _rewrite(self, predicate: Predicate, sharing: TableSharing):
        """Rewrite a bound predicate, through the plan cache when installed."""
        cache = self.plan_cache
        if cache is None:
            return rewrite_predicate(predicate, sharing)
        return cache.rewritten(self, sharing, predicate)

    # ------------------------------------------------------- row-id hand-out --

    def reserve_row_ids(self, table_name: str, count: int) -> int:
        """Atomically reserve ``count`` consecutive row ids; returns the first.

        Sessions draw private blocks through this, so concurrent writers
        never interleave inside a block and each session's ids are
        deterministic regardless of thread scheduling.
        """
        if count < 1:
            raise QueryError(f"cannot reserve {count} row ids")
        self.sharing(table_name)  # validates the table exists
        with self._row_id_lock:
            start = self._next_row_id[table_name]
            self._next_row_id[table_name] = start + count
        return start

    # --------------------------------------------------------------- writes --

    def insert(self, table_name: str, row: Row) -> int:
        """Insert one row; returns its client-assigned row id."""
        return self.insert_many(table_name, [row])[0]

    def insert_many(
        self,
        table_name: str,
        rows: List[Row],
        row_ids: Optional[List[int]] = None,
    ) -> List[int]:
        """Share and upload a batch; returns assigned row ids.

        ``row_ids`` lets a caller that pre-reserved ids (a service
        session's private block, :meth:`reserve_row_ids`) supply them
        explicitly; when omitted a contiguous block is reserved here.
        """
        with telemetry.span("insert", table=table_name, rows=len(rows)):
            return self._insert_many(table_name, rows, row_ids)

    def prepare_insert_shares(
        self,
        table_name: str,
        rows: List[Row],
        explicit_ids: Optional[List[int]] = None,
    ) -> List[Tuple[int, List[ShareRow]]]:
        """Validate, assign row ids, and share a batch of plaintext rows.

        Returns ``[(row_id, [share_row per provider])]`` — the resolved
        payload material shared by the direct insert path and the
        transaction layer (which logs it to the WAL before any RPC).
        """
        sharing = self.sharing(table_name)
        if explicit_ids is not None and len(explicit_ids) != len(rows):
            raise QueryError(
                f"{len(explicit_ids)} row ids supplied for {len(rows)} rows"
            )
        if explicit_ids is None and rows:
            start = self.reserve_row_ids(table_name, len(rows))
            explicit_ids = list(range(start, start + len(rows)))
        schema = sharing.schema
        prepared: List[Tuple[int, List[ShareRow]]] = []
        for position, row in enumerate(rows):
            # validation yields the encoded cells: one encode per cell
            share_rows = sharing.share_row(schema.encode_row(row), encoded=True)
            self.cost.record(
                "poly_eval", len(schema.columns) * self.cluster.n_providers
            )
            prepared.append((explicit_ids[position], share_rows))
        return prepared

    def apply_insert_shares(
        self,
        table_name: str,
        prepared: List[Tuple[int, List[ShareRow]]],
        epoch: Optional[int] = None,
    ) -> List[int]:
        """Upload pre-shared rows through the epoch choke point."""
        if not prepared:
            return []
        targets = self.cluster.write_targets()
        self._mutate(
            table_name,
            "insert_many",
            lambda i: {
                "table": table_name,
                "rows": [[rid, shares[i]] for rid, shares in prepared],
            },
            provider_indexes=targets,
            epoch=epoch,
        )
        if self.audit is not None:
            for rid, shares in prepared:
                for index in targets:
                    self.audit.on_insert(table_name, index, rid, shares[index])
        return [rid for rid, _ in prepared]

    def _insert_many(
        self,
        table_name: str,
        rows: List[Row],
        explicit_ids: Optional[List[int]] = None,
    ) -> List[int]:
        prepared = self.prepare_insert_shares(table_name, rows, explicit_ids)
        self.apply_insert_shares(table_name, prepared)
        return [rid for rid, _ in prepared]

    def update(self, query: Update) -> int:
        """Eager update (Sec. V-C): fetch, reconstruct, re-share, write back."""
        with telemetry.span("update", table=query.table) as sp:
            updated = self._update(query)
            sp.set(rows_updated=updated)
            return updated

    def prepare_update_shares(
        self, query: Update, matches: List[Tuple[int, Row]]
    ) -> List[List]:
        """Re-share the assigned columns of matched rows, one list per
        provider: ``updates_per_provider[i] == [[row_id, {col: share}]]``.

        Delta assignments (``SET c = c + n``) are resolved against each
        row's current value here — this is the *eager* path, the
        correctness oracle the incremental share-delta path is checked
        against.
        """
        sharing = self.sharing(query.table)
        schema = sharing.schema
        for column in query.assignments:
            schema.column(column)
        pk = schema.primary_key
        updates_per_provider: List[List] = [
            [] for _ in range(self.cluster.n_providers)
        ]
        for row_id, row in matches:
            candidate = dict(row)
            candidate.update(resolve_assignments(row, query.assignments))
            normalised = schema.validate_row(candidate)
            if pk is not None and normalised[pk] != row[pk]:
                raise SchemaError(
                    f"table {query.table}: primary key update not supported"
                )
            # re-share only the assigned columns; untouched shares stay
            # valid.  share_value is called ONCE per column: for random
            # (non-searchable) columns every call draws a fresh polynomial,
            # so per-provider calls would hand each provider a share of a
            # different secret — unreconstructable garbage.
            shares_by_column = {
                column: sharing.share_value(column, normalised[column])
                for column in query.assignments
            }
            for provider_index in range(self.cluster.n_providers):
                updates_per_provider[provider_index].append(
                    [
                        row_id,
                        {
                            column: shares[provider_index]
                            for column, shares in shares_by_column.items()
                        },
                    ]
                )
            self.cost.record(
                "poly_eval",
                len(query.assignments) * self.cluster.n_providers,
            )
        return updates_per_provider

    def apply_share_updates(
        self,
        table_name: str,
        updates_per_provider: List[List],
        epoch: Optional[int] = None,
    ) -> int:
        """Write per-provider column-share updates through the choke point.

        Shared by the eager update path, the lazy-update buffer flush
        (:mod:`repro.client.updates`), and transaction recovery — the
        callers that previously each built their own ``update_rows``
        round (and one of which forgot the epoch bump, the ISSUE-8
        satellite bug).
        """
        targets = self.cluster.write_targets()
        self._mutate(
            table_name,
            "update_rows",
            lambda i: {"table": table_name, "updates": updates_per_provider[i]},
            provider_indexes=targets,
            epoch=epoch,
        )
        if self.audit is not None:
            for index in targets:
                for row_id, assignments in updates_per_provider[index]:
                    self.audit.on_update(table_name, index, row_id, assignments)
        return max(
            (len(updates) for updates in updates_per_provider), default=0
        )

    def _update(self, query: Update) -> int:
        matches = self._fetch_matching_rows(query)
        if not matches:
            return 0
        updates_per_provider = self.prepare_update_shares(query, matches)
        self.apply_share_updates(query.table, updates_per_provider)
        return len(matches)

    def delete(self, query: Delete) -> int:
        """Delete matching rows at every live provider."""
        with telemetry.span("delete", table=query.table) as sp:
            deleted = self._delete(query)
            sp.set(rows_deleted=deleted)
            return deleted

    def _delete(self, query: Delete) -> int:
        matches = self._fetch_matching_rows(query)
        if not matches:
            return 0
        return self.delete_row_ids(query.table, [rid for rid, _ in matches])

    def increment(
        self,
        table_name: str,
        column: str,
        delta: int,
        where: Predicate,
    ) -> int:
        """Incremental update (Sec. V-C): add ``delta`` to a column in place.

        Exploits sharing linearity: the client ships one fresh share of
        ``delta`` per matching row per provider, and providers add it to
        the stored share — **no retrieval, no reconstruction**, roughly
        halving the communication of an eager read-modify-write.

        Restrictions (all inherent, all raised loudly):

        * the column must be randomly shared (non-searchable) and INTEGER —
          order-preserving shares are deterministic per value and cannot be
          perturbed in place;
        * the predicate must be fully provider-pushable — a client residual
          would require fetching rows anyway, erasing the saving (use
          :meth:`update`);
        * incompatible with an attached audit registry (the client cannot
          update its share hashes without knowing the current shares).

        NULL values stay NULL; returns the number of rows incremented.
        """
        if self.audit is not None:
            raise QueryError(
                "increment() cannot maintain the audit registry's share "
                "hashes; use update() on audited tables"
            )
        sharing = self.sharing(table_name)
        column_schema = sharing.schema.column(column)
        if column_schema.searchable:
            raise UnsupportedQueryError(
                f"column {table_name}.{column} is order-preserving; in-place "
                "share addition would corrupt its deterministic shares — "
                "use update() instead"
            )
        if column_schema.ctype is not ColumnType.INTEGER:
            raise QueryError(
                f"increment() supports INTEGER columns; {column} is "
                f"{column_schema.ctype.value}"
            )
        bound = where.bind(sharing.schema)
        rewritten = self._rewrite(bound, sharing)
        if rewritten.provably_empty:
            return 0
        if rewritten.has_residual:
            raise UnsupportedQueryError(
                "increment() requires a fully provider-pushable predicate; "
                "this one needs client-side filtering — use update()"
            )
        row_ids = self._fetch_row_ids(sharing, rewritten)
        if not row_ids:
            return 0
        delta_shares = self.prepare_increment_shares(
            table_name, column, delta
        )
        return self.apply_share_increments(
            table_name, row_ids, [{column: s} for s in delta_shares]
        )

    def prepare_increment_shares(
        self,
        table_name: str,
        column: str,
        delta: int,
    ) -> List[int]:
        """One fresh sharing of ``delta``, one share per provider.

        A single polynomial serves every matched row: row share f_r(i)
        plus delta share g(i) reconstructs to v_r + delta by linearity.
        Sub-threshold coalitions learn nothing about delta (Shamir
        perfect secrecy holds per polynomial), and the fact that one
        uniform delta hits the whole row set is already explicit in the
        RPC shape — so, unlike share *refresh* (which must re-randomize
        each row independently), nothing is gained by paying O(rows)
        polynomials here.
        """
        column_schema = self.sharing(table_name).schema.column(column)
        # domain check: the incremented values must stay in the column's
        # declared domain; without reading them we can only check bounds
        lo, hi = column_schema.lo, column_schema.hi
        if delta > 0 and hi is not None and delta > (hi - lo):
            raise QueryError(f"delta {delta} exceeds the column's domain span")
        field = self.random_field()
        delta_shares = self.random_scheme_for(table_name).split(
            field.encode_signed(delta), self._rng
        )
        self.cost.record("poly_eval", self.cluster.n_providers)
        return list(delta_shares)

    def apply_share_increments(
        self,
        table_name: str,
        row_ids: List[int],
        deltas_per_provider: List[Dict[str, int]],
        epoch: Optional[int] = None,
    ) -> int:
        """Ship per-provider delta shares through the epoch choke point."""
        responses = self._mutate(
            table_name,
            "increment_rows",
            lambda i: {
                "table": table_name,
                "row_ids": row_ids,
                "deltas": deltas_per_provider[i],
                "modulus": self.secrets.field.modulus,
            },
            epoch=epoch,
        )
        counts = {response["incremented"] for response in responses.values()}
        if len(counts) != 1:
            raise IntegrityError(
                f"providers disagree on incremented row count: {sorted(counts)}"
            )
        return counts.pop()

    def random_field(self):
        """The prime field used by random (non-searchable) shares."""
        return self.secrets.field

    def random_scheme_for(self, table_name: str):
        """The random Shamir scheme of an outsourced table."""
        return self.sharing(table_name).random_scheme

    def refresh_table_shares(self, table_name: str) -> int:
        """Proactive share refresh (mobile-adversary defence, Sec. VI b).

        Adds a fresh sharing of **zero** to every randomly-shared column of
        every row: values are unchanged (linearity), but each row sits on a
        brand-new polynomial afterwards, so shares an adversary exfiltrated
        *before* the refresh cannot be combined with shares stolen *after*
        it — the classical proactive-secret-sharing epoch bound.

        Order-preserving columns are left untouched: their shares are
        deterministic per value and cannot be re-randomised without
        changing the scheme (their protection rests on the keyed slots,
        not on polynomial freshness).  Incompatible with an attached audit
        registry for the same reason as :meth:`increment` (the client
        cannot update its share hashes blind); use :meth:`resync_table`
        to refresh audited tables.

        Returns the number of rows refreshed.
        """
        if self.audit is not None:
            raise QueryError(
                "refresh_table_shares() cannot maintain the audit registry; "
                "use resync_table() on audited tables (same effect, plus "
                "fresh hashes)"
            )
        sharing = self.sharing(table_name)
        random_columns = [
            c.name for c in sharing.schema.columns if not c.searchable
        ]
        if not random_columns:
            return 0
        row_ids = self._fetch_row_ids(
            sharing, rewrite_predicate(TruePredicate(), sharing)
        )
        if not row_ids:
            return 0
        increments_per_provider: List[List] = [
            [] for _ in range(self.cluster.n_providers)
        ]
        for row_id in row_ids:
            deltas_by_provider: List[Dict[str, int]] = [
                {} for _ in range(self.cluster.n_providers)
            ]
            for column in random_columns:
                zero_shares = sharing.random_scheme.split(0, self._rng)
                self.cost.record("poly_eval", self.cluster.n_providers)
                for index in range(self.cluster.n_providers):
                    deltas_by_provider[index][column] = zero_shares[index]
            for index in range(self.cluster.n_providers):
                increments_per_provider[index].append(
                    [row_id, deltas_by_provider[index]]
                )
        self._mutate(
            table_name,
            "increment_rows",
            lambda i: {
                "table": table_name,
                "increments": increments_per_provider[i],
                "modulus": self.secrets.field.modulus,
            },
        )
        return len(row_ids)

    def resync_table(self, table_name: str) -> int:
        """Re-share a whole table to every live provider (anti-entropy).

        After a provider recovers from a crash its copy is stale (writes it
        missed never reach it).  Resync reads every row through the current
        quorum, reconstructs plaintext at the client, draws *fresh* shares,
        and rewrites the table at **all** live providers — shares must be
        regenerated together because mixing polynomial generations across
        providers breaks reconstruction.  Returns the row count.
        """
        return self._reshare_table(table_name, self._scan(table_name))

    def _scan(
        self, table_name: str, as_of_epoch: Optional[int] = None
    ) -> List[Tuple[int, Row]]:
        """Every row of a table as ``(row_id, row)`` through a plain read:
        the whole-table read behind resync, secret rotation and time
        travel (as of ``as_of_epoch`` when given)."""
        sharing = self.sharing(table_name)
        if as_of_epoch is None:
            method, request = "scan", {"table": table_name, "projection": None}
        else:
            method, request = "scan_asof", {"table": table_name, "epoch": as_of_epoch}

        def decode(responses: Dict[int, Dict]):
            pairs: List[Tuple[int, Row]] = []
            reconstruct_rows(sharing, responses, cost=self.cost, emitted=pairs)
            return pairs, ()

        return self._read(method, lambda i: request, [], PLAIN, table_name, decode)

    def _reshare_table(self, table_name: str, rows: List[Tuple[int, Row]]) -> int:
        """Drop and recreate a table at every live provider, then upload
        fresh shares of ``rows`` under the current secrets."""
        sharing = self.sharing(table_name)
        targets = self.cluster.write_targets()
        searchable = [c.name for c in sharing.schema.columns if c.searchable]
        for index in targets:
            provider = self.cluster.providers[index]
            if provider.store.has_table(self.physical_name(table_name)):
                self._call_one(index, "drop_table", {"table": table_name})
            self._call_one(
                index,
                "create_table",
                {
                    "table": table_name,
                    "columns": sharing.schema.column_names,
                    "searchable": searchable,
                },
            )
        prepared = [(row_id, sharing.share_row(row)) for row_id, row in rows]
        self.cost.record(
            "poly_eval",
            len(prepared) * len(sharing.schema.columns) * self.cluster.n_providers,
        )
        if prepared:
            self._mutate(
                table_name,
                "insert_many",
                lambda i: {
                    "table": table_name,
                    "rows": [[rid, shares[i]] for rid, shares in prepared],
                },
                provider_indexes=targets,
            )
        else:
            # no rows survived, but the table was dropped and recreated —
            # cached plans and rows are dead regardless
            self.bump_table_epoch(table_name)
        if self.audit is not None:
            self.audit.on_resync(table_name)
            for rid, shares in prepared:
                for index in targets:
                    self.audit.on_insert(table_name, index, rid, shares[index])
        return len(prepared)

    # ------------------------------------------------- share-row migration --

    def scan_share_rows(
        self, table_name: str, extra: int = 0
    ) -> Dict[int, Dict[int, ShareRow]]:
        """Aligned share rows of a whole table: ``{row_id: {provider: row}}``.

        The raw material of share-level rebuilds (provider repair, shard
        migration): rows are fetched through the health-ordered read
        quorum with failover and returned *as shares* — nothing is
        reconstructed here.  ``extra`` requests redundant shares beyond k
        so a tampering quorum member can be blamed by the rebuild.
        """
        self.sharing(table_name)
        responses = self._broadcast(
            "scan",
            lambda i: {"table": table_name, "projection": None},
            minimum=self.threshold,
            provider_indexes=self.cluster.read_quorum(extra=extra),
            quorum="first_k",
            failover=self.failover,
        )
        return _aligned(responses)

    def create_staging_table(self, table_name: str, staging: str) -> None:
        """Create an empty staging copy of a table's layout at every live
        provider.  Staging tables are provider-side only — the client
        never registers a sharing for them, so queries cannot see them."""
        sharing = self.sharing(table_name)
        searchable = [c.name for c in sharing.schema.columns if c.searchable]
        self._broadcast(
            "create_table",
            lambda i: {
                "table": staging,
                "columns": sharing.schema.column_names,
                "searchable": searchable,
            },
            provider_indexes=self.cluster.write_targets(),
        )

    def drop_staging_table(self, staging: str) -> None:
        """Drop a staging table wherever it exists (abandoned migration)."""
        physical = self.physical_name(staging)
        for index in self.cluster.write_targets():
            if self.cluster.providers[index].store.has_table(physical):
                self._call_one(index, "drop_table", {"table": staging})

    def insert_share_rows(
        self,
        table_name: str,
        rows: List[Tuple[int, Dict[int, ShareRow]]],
        into: Optional[str] = None,
    ) -> int:
        """Upload pre-built share rows verbatim (no sharing, no encoding).

        ``rows`` is ``[(row_id, {provider_index: share_row})]`` — share
        rows rebuilt by the repair machinery on this client's evaluation
        points.  ``into`` redirects the upload to a staging table without
        bumping the live table's epoch (the rows are not visible yet);
        without it the live table is written and its epoch advances.
        """
        self.sharing(table_name)
        if not rows:
            return 0
        target_table = into if into is not None else table_name
        # staging uploads bump the *staging* name's epoch (harmless — the
        # live table's caches stay warm until the merge makes rows visible)
        self._mutate(
            target_table,
            "insert_many",
            lambda i: {
                "table": target_table,
                "rows": [[rid, per_provider[i]] for rid, per_provider in rows],
            },
        )
        return len(rows)

    def merge_staging_table(self, table_name: str, staging: str) -> int:
        """Make a staging table's rows live: provider-local move + epoch bump.

        Returns the maximum per-provider merged count (a provider that
        missed the staging upload merges zero and is simply stale).
        """
        self.sharing(table_name)
        responses = self._mutate(
            table_name,
            "merge_table",
            lambda i: {"table": staging, "into": table_name},
        )
        return max(
            (response["merged"] for response in responses.values()), default=0
        )

    def delete_row_ids(
        self,
        table_name: str,
        row_ids: List[int],
        epoch: Optional[int] = None,
    ) -> int:
        """Delete specific rows at every live provider (no predicate fetch)."""
        self.sharing(table_name)
        if not row_ids:
            return 0
        self._mutate(
            table_name,
            "delete_rows",
            lambda i: {"table": table_name, "row_ids": list(row_ids)},
            epoch=epoch,
        )
        if self.audit is not None:
            for row_id in row_ids:
                self.audit.on_delete(table_name, row_id)
        return len(row_ids)

    def _fetch_matching_rows(
        self, query: Union[Update, Delete]
    ) -> List[Tuple[int, Row]]:
        """Row ids + plaintext of rows matching a write query's predicate."""
        sharing = self.sharing(query.table)
        rewritten = self._rewrite(query.where.bind(sharing.schema), sharing)
        if rewritten.provably_empty:
            return []
        return self._fetch(sharing, rewritten)

    # ---------------------------------------------------------------- reads --
    #
    # Every read runs plan → fetch → finish.  ``plan_select`` validates the
    # query and decides once how it executes; ``_fetch`` returns the
    # matching (row_id, row) pairs under a read policy (PLAIN, CHECKED,
    # ROBUST or AUDITED); the pipeline's finish step sorts, limits,
    # projects, aggregates and joins at the client.

    def select(self, query: Select) -> Union[List[Row], object]:
        """Execute a SELECT (projection, aggregate, grouped, or top-k)."""
        with telemetry.span("select", table=query.table) as sp:
            result = self._run_select(
                query, CHECKED if self.verified_reads else PLAIN
            )
            if telemetry.is_enabled() and isinstance(result, list):
                sp.set(rows_returned=len(result))
                telemetry.count("query.rows_returned", len(result))
            return result

    def _plan(
        self, query: Select, pushdown: bool
    ) -> Tuple[TableSharing, Predicate, ReadPlan]:
        sharing = self.sharing(query.table)
        predicate = query.where.bind(sharing.schema)
        plan = plan_select(
            sharing, query, self._rewrite(predicate, sharing), pushdown
        )
        return sharing, predicate, plan

    def _run_select(self, query: Select, policy: str) -> Union[List[Row], object]:
        """Plan, fetch and finish one SELECT under a read policy."""
        sharing, predicate, plan = self._plan(query, pushdown=policy == PLAIN)
        if plan.method is None:
            return empty_result(query)
        if plan.method != "select":
            return self._aggregate_at_providers(sharing, query, plan)
        if query.is_aggregate or policy != PLAIN:
            rows = [row for _, row in self._fetch(sharing, plan.rewritten, policy)]
        else:
            # query-level replay: an identical SELECT in the same epoch
            # serves the full rows straight from the row cache — zero
            # provider RPCs.  The signature covers everything that
            # determines the *row set* (predicate + pushed-down
            # order/limit); the finish step runs identically on replays.
            epoch = self.table_epoch(query.table)
            signature = (
                "select",
                repr(predicate),
                plan.push_order,
                query.descending if plan.push_order is not None else False,
                plan.push_limit,
            )
            rows = self.row_cache.lookup_query(query.table, signature, epoch)
            if rows is None:
                pairs = self._fetch(
                    sharing,
                    plan.rewritten,
                    order_by=plan.push_order,
                    descending=query.descending,
                    limit=plan.push_limit,
                    cache_epoch=epoch,
                )
                self.row_cache.store_query(query.table, signature, epoch, pairs)
                rows = [row for _, row in pairs]
        if query.is_aggregate:
            return aggregate_rows(query, rows)
        return finish_rows(sharing.schema, query, rows)

    def _aggregate_at_providers(
        self, sharing: TableSharing, query: Select, plan: ReadPlan
    ):
        """Provider-side (grouped) partial aggregation, combined here.

        Grouped partials come back in plaintext group order (providers
        group by the deterministic share of the group column), so the
        quorum's group lists align positionally; each group key is
        reconstructed from its shares.
        """
        aggregate = query.aggregate
        request = {
            "table": query.table,
            "func": (
                "sum" if aggregate.func is AggregateFunc.AVG
                else aggregate.func.value
            ),
            "column": aggregate.column,
        }
        if plan.method == "aggregate_group":
            request["group_column"] = query.group_by
        rewritten = plan.rewritten

        def build(i: int) -> Dict:
            return dict(request, conditions=rewritten.conditions_for(sharing, i))

        def decode(responses: Dict[int, Dict]):
            if plan.method == "aggregate":
                return self._combine_partials(sharing, aggregate, responses), ()
            lengths = {len(response["groups"]) for response in responses.values()}
            if len(lengths) != 1:
                raise IntegrityError(
                    f"providers disagree on the number of groups: {sorted(lengths)}"
                )
            out: List[Row] = []
            for position in range(lengths.pop()):
                group_shares = {
                    index: response["groups"][position][0]
                    for index, response in responses.items()
                }
                payloads = {
                    index: response["groups"][position][1]
                    for index, response in responses.items()
                }
                key = sharing.reconstruct_value(query.group_by, group_shares)
                self.cost.record("interpolate", 1)
                out.append(
                    {
                        query.group_by: key,
                        aggregate.func.value: self._combine_partials(
                            sharing, aggregate, payloads
                        ),
                    }
                )
            return out, ()

        return self._read(plan.method, build, [rewritten], PLAIN, query.table, decode)

    def _combine_partials(
        self,
        sharing: TableSharing,
        aggregate: Aggregate,
        payloads: Dict[int, Dict],
    ):
        """One aggregate value from the quorum's per-provider partials."""
        func = aggregate.func
        column = aggregate.column
        if func is AggregateFunc.COUNT:
            return consistent_scalar(payloads, "count")
        if func in (AggregateFunc.SUM, AggregateFunc.AVG):
            count = consistent_scalar(payloads, "count")
            if count == 0:
                return None
            partials = {
                index: payload["partial_sum"]
                for index, payload in payloads.items()
            }
            self.cost.record("interpolate", 1)
            total = sharing.combine_sum(column, partials, count)
            return total if func is AggregateFunc.SUM else total / count
        # MIN / MAX / MEDIAN: providers nominate the same row by share order
        row = reconstruct_single_rows(sharing, payloads, cost=self.cost)
        return None if row is None else row[column]

    def select_with_ids(self, query: Select) -> List[Tuple[int, Row]]:
        """Like :meth:`select` but returns (row_id, row) pairs.

        Used by the trust layer (completeness chains key on row ids) and
        by tests; aggregates are not supported here.
        """
        if query.is_aggregate:
            raise QueryError("select_with_ids does not support aggregates")
        sharing, _, plan = self._plan(query, pushdown=False)
        pairs = self._fetch(sharing, plan.rewritten) if plan.method else []
        pairs = order_rows(sharing.schema, query, pairs, row_of=itemgetter(1))
        if query.columns:
            pairs = [
                (row_id, {name: row[name] for name in query.columns})
                for row_id, row in pairs
            ]
        return pairs

    def select_robust(self, query: Select) -> List[Row]:
        """SELECT that *tolerates* a minority of tampering providers.

        The malicious-environment read path (Sec. VI b): the query fans
        out to **every** live provider (not just a k-quorum) and each value
        is decoded with error-correcting reconstruction — a minority of
        corrupted shares is outvoted rather than poisoning the result.
        Where :meth:`select_verified` *detects and aborts*, this path
        *masks and continues*; the redundancy costs one response per extra
        provider.

        Supports projection queries (with ORDER BY/LIMIT applied at the
        client); aggregates should use the verified path instead.
        """
        if query.is_aggregate:
            raise QueryError(
                "select_robust supports row queries; robust aggregates "
                "would need verifiable partials — use select_verified on "
                "the underlying rows instead"
            )
        return self._run_select(query, ROBUST)

    def _fetch(
        self,
        sharing: TableSharing,
        rewritten: RewrittenPredicate,
        policy: str = PLAIN,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
        cache_epoch: Optional[int] = None,
    ) -> List[Tuple[int, Row]]:
        """Fetch: the ``(row_id, row)`` pairs matching ``rewritten``.

        ``order_by``/``limit`` ship with the request; ``cache_epoch`` lets
        a plain read skip interpolating rows the row cache already holds
        for that epoch.  Rows come back in row-id order.
        """
        extra: Dict[str, object] = {"projection": None}
        if order_by is not None:
            extra.update(order_by=order_by, descending=descending)
        if limit is not None:
            extra["limit"] = limit
        residual = rewritten.residual

        def decode(responses: Dict[int, Dict]):
            pairs: List[Tuple[int, Row]] = []
            if policy == CHECKED:
                blamed: set = set()
                aligned = {
                    row_id: {index: (row,) for index, row in per_provider.items()}
                    for row_id, per_provider in _aligned(responses).items()
                }
                for row_id, (row,) in reconstruct_checked(
                    [sharing], aligned, set(responses), blamed
                ):
                    self.cost.record("interpolate", len(row))
                    if residual.matches(row):
                        pairs.append((row_id, row))
                return pairs, blamed
            if policy == ROBUST:
                for row_id, share_rows in _aligned(responses).items():
                    if len(share_rows) < self.threshold:
                        continue  # injected row ids from a minority are dropped
                    row = sharing.reconstruct_row_robust(share_rows)
                    self.cost.record(
                        "interpolate",
                        len(row) * max(1, len(share_rows) - self.threshold + 1),
                    )
                    if residual.matches(row):
                        pairs.append((row_id, row))
                return pairs, ()
            reconstruct_rows(
                sharing,
                responses,
                residual=residual,
                cost=self.cost,
                strict=policy == AUDITED,
                row_cache=self.row_cache,
                cache_epoch=cache_epoch,
                emitted=pairs,
            )
            return pairs, ()

        return self._read(
            "select",
            self._select_request(sharing, rewritten, extra),
            [rewritten],
            policy,
            sharing.schema.name,
            decode,
        )

    def _fetch_row_ids(
        self, sharing: TableSharing, rewritten: RewrittenPredicate
    ) -> List[int]:
        """Ids of the rows matching ``rewritten`` (no share payload)."""

        def decode(responses: Dict[int, Dict]):
            aligned = _aligned(responses)
            return [
                row_id for row_id, per_provider in aligned.items()
                if len(per_provider) >= self.threshold
            ], ()

        return self._read(
            "select",
            self._select_request(sharing, rewritten, {"projection": []}),
            [rewritten],
            PLAIN,
            sharing.schema.name,
            decode,
        )

    @staticmethod
    def _select_request(
        sharing: TableSharing, rewritten: RewrittenPredicate, extra: Dict
    ):
        table = sharing.schema.name
        return lambda i: {
            "table": table,
            "conditions": rewritten.conditions_for(sharing, i),
            **extra,
        }

    def _read(
        self,
        method: str,
        request,
        rewrites: List[RewrittenPredicate],
        policy: str,
        table: str,
        decode,
    ):
        """The one read fan-out: quorum for ``policy``, broadcast, decode.

        * PLAIN / AUDITED — the health-ordered k-quorum, first k
          responses; AUDITED also checks every returned share against the
          audit registry.
        * ROBUST — every live provider.
        * CHECKED — k + ``read_redundancy`` shares, whole round.  Blamed
          providers are quarantined and the read re-issues without them,
          bounded by the cluster size; the last round's result is
          returned regardless — robust decoding already masked the
          minority, re-issuing is about *evicting* it.

        ``decode(responses)`` returns ``(result, blamed_indexes)``; only
        CHECKED decoding blames.
        """
        blamed_total: set = set()
        for _ in range(max(1, self.cluster.n_providers)):
            if policy == CHECKED:
                quorum = self._verified_quorum(blamed_total)
            elif policy == ROBUST:
                quorum = self.cluster.live_provider_indexes()
                if len(quorum) < self.threshold:
                    raise QuorumError(
                        f"only {len(quorum)} providers live, need k={self.threshold}"
                    )
            else:
                quorum = self.cluster.read_quorum()
            for rewritten in rewrites:
                self._record_rewrite_cost(rewritten, len(quorum))
            responses = self._broadcast(
                method,
                request,
                minimum=self.threshold,
                provider_indexes=quorum,
                quorum="all" if policy == CHECKED else "first_k",
                failover=self.failover,
            )
            if policy == AUDITED:
                self.audit.verify_responses(table, responses)
            result, blamed = decode(responses)
            if not blamed:
                return result
            self._quarantine_blamed(blamed)
            blamed_total.update(blamed)
            telemetry.count("verified.reissued", table=table)
        return result

    def _record_rewrite_cost(
        self, rewritten: RewrittenPredicate, n_targets: int
    ) -> None:
        # two share evaluations (low & high endpoint) per interval per target
        self.cost.record("poly_eval", 2 * len(rewritten.intervals) * n_targets)

    # --------------------------------------------------------- time travel --

    def scan_asof(self, table_name: str, as_of_epoch: int) -> List[Tuple[int, Row]]:
        """Reconstructed plaintext of a table as of a past mutation epoch.

        Providers keep an epoch-tagged undo history per table (written by
        every :meth:`_mutate` round and the transaction layer), so each
        can serve its *share* state as of client epoch ``as_of_epoch``;
        reconstructing across k of them yields the historical plaintext.
        Raises :class:`QueryError` when the epoch predates the providers'
        retention horizon.
        """
        self.sharing(table_name)
        if as_of_epoch < 0:
            raise QueryError(f"as_of_epoch must be >= 0, got {as_of_epoch}")
        return self._scan(table_name, as_of_epoch)

    def select_asof(
        self, query: Select, as_of_epoch: int
    ) -> Union[List[Row], object]:
        """Time-travel read: evaluate ``query`` against epoch ``as_of_epoch``.

        Historical state cannot use the provider-pushable rewritten
        conditions (order-preserving index slots reflect *current* rows),
        so the whole historical table is reconstructed client-side and the
        query is evaluated by the plaintext reference executor — time
        travel trades bandwidth for the ability to read the past at all.
        Joins are not supported (two tables' epochs are not comparable).
        """
        with telemetry.span(
            "select_asof", table=query.table, epoch=as_of_epoch
        ):
            sharing = self.sharing(query.table)
            rows = [row for _, row in self.scan_asof(query.table, as_of_epoch)]
            catalog = Catalog()
            catalog.add_table(Table(sharing.schema, rows))
            from ..sqlengine.executor import PlaintextExecutor

            return PlaintextExecutor(catalog).execute_select(query)

    def rotate_secrets(self, new_seed: int) -> Dict[str, int]:
        """Re-key the deployment (the concern of paper ref [24]).

        Reads every table through the current quorum, generates fresh
        secret material (new evaluation points *and* new hash keys), and
        re-shares everything at all live providers.  After rotation a
        transcript of old shares plus a future compromise of the old
        secrets reveals nothing about current data.  Returns per-table row
        counts re-shared.
        """
        from ..core.secrets import generate_client_secrets

        # 1. read everything out under the old secrets
        snapshots = {name: self._scan(name) for name in self.table_names()}
        # 2. swap in fresh secrets and rebuild the sharing machinery.
        # Every kernel cache is keyed on the old evaluation points and every
        # cached plaintext row was reconstructed under the old secrets —
        # both are dead the moment the points change, so drop them here
        # rather than letting unreachable entries squat on capacity.
        from ..core.kernels import clear_kernel_caches

        clear_kernel_caches()
        self.row_cache.clear()
        old_sharings = self._sharings
        self.secrets = generate_client_secrets(
            self.cluster.n_providers, new_seed, self.secrets.field
        )
        self._rng = DeterministicRNG(new_seed, "datasource-rotated")
        self._op_registry = {}
        self._sharings = {}
        for name, old in old_sharings.items():
            self._sharings[name] = TableSharing(
                old.schema, self.secrets, self.threshold, self._rng,
                self._op_registry,
            )
        # 3. re-share every table at every live provider.  Rotation
        # rebuilds the sharing machinery, so any cached plan's share-space
        # conditions are garbage — the epoch bump is what keeps a plan
        # cache correct across re-keying
        counts: Dict[str, int] = {}
        for name, rows in snapshots.items():
            counts[name] = self._reshare_table(name, rows)
            self.bump_table_epoch(name)
        return counts

    def select_verified(self, query: Select) -> List[Row]:
        """SELECT with the trust layer engaged (requires ``audit``).

        Every returned share is checked against the client's recorded
        hashes (correctness) and providers must agree on the matching row
        set (strict alignment — detects omission within the quorum).
        Raises :class:`IntegrityError` on any discrepancy.
        """
        if self.audit is None:
            raise QueryError(
                "select_verified requires an AuditRegistry; construct the "
                "DataSource with audit=AuditRegistry(n_providers)"
            )
        if query.is_aggregate:
            raise QueryError(
                "verified aggregates are not supported; verify the "
                "underlying rows with a projection query instead"
            )
        return self._run_select(query, AUDITED)

    # ------------------------------------------------------- verified reads --

    def _verified_extra(self) -> int:
        """Redundant shares a verified read requests beyond k."""
        if self.read_redundancy is not None:
            return self.read_redundancy
        return self.cluster.n_providers  # read_quorum caps at the cluster

    def _verified_quorum(self, blamed_total: set) -> List[int]:
        """The provider set for one verified round.

        Quarantined providers (blamed by an earlier query, or repeatedly
        unavailable) are dropped alongside this query's own blame while
        more than k candidates remain — at least k+1 shares are needed
        for the cross-check itself.  When the margin runs out, only the
        currently-blamed are excluded (while ≥ k others remain); past
        that point even they re-enter as a last resort (any k shares
        still reconstruct — robust decoding outvotes a minority tamperer
        even when it must be addressed).
        """
        candidates = set(range(self.cluster.n_providers))
        quarantined = {
            i for i in candidates if self.cluster.health.is_quarantined(i)
        }
        exclude: Tuple[int, ...] = ()
        if (quarantined or blamed_total) and (
            len(candidates - quarantined - blamed_total) > self.threshold
        ):
            exclude = tuple(sorted(quarantined | blamed_total))
        elif blamed_total and len(candidates - blamed_total) >= self.threshold:
            exclude = tuple(sorted(blamed_total))
        return self.cluster.read_quorum(
            extra=self._verified_extra(), exclude=exclude
        )

    def _quarantine_blamed(self, blamed: List[int]) -> None:
        for index in blamed:
            self.cluster.health.quarantine(index, reason="blamed")

    # ---------------------------------------------------------------- joins --

    def join(self, query: JoinSelect) -> List[Row]:
        """Equi-join on a referential key (Sec. V-A "Join Operations")."""
        with telemetry.span(
            "join", left=query.left_table, right=query.right_table
        ) as sp:
            rows = self._join(query)
            sp.set(rows_returned=len(rows))
            return rows

    def _join(self, query: JoinSelect) -> List[Row]:
        left = self.sharing(query.left_table)
        right = self.sharing(query.right_table)
        check_join_columns(query, left.schema, right.schema)
        left_pred, right_pred, residual = split_join_predicate(
            query.where, query.left_table, query.right_table
        )
        left_rw = self._rewrite(left_pred.bind(left.schema), left)
        right_rw = self._rewrite(right_pred.bind(right.schema), right)
        if left_rw.provably_empty or right_rw.provably_empty:
            return []
        if not _join_compatible(query, left, right):
            if not self.client_join_fallback:
                raise UnsupportedQueryError(
                    f"join {query.left_table}.{query.left_column} = "
                    f"{query.right_table}.{query.right_column} cannot run at "
                    "the providers: the columns are not order-preserving "
                    "shares of the same domain (Sec. V-A); enable "
                    "client_join_fallback to join at the client instead"
                )
            left_rows = [row for _, row in self._fetch(left, left_rw)]
            right_rows = [row for _, row in self._fetch(right, right_rw)]
            self.cost.record("compare", len(left_rows) + len(right_rows))
            return hash_join(query, left_rows, right_rows, residual)
        policy = CHECKED if self.verified_reads else PLAIN

        def request(i: int) -> Dict:
            return {
                "left": query.left_table,
                "right": query.right_table,
                "left_column": query.left_column,
                "right_column": query.right_column,
                "left_conditions": left_rw.conditions_for(left, i),
                "right_conditions": right_rw.conditions_for(right, i),
                "projection_left": None,
                "projection_right": None,
            }

        def decode(responses: Dict[int, Dict]):
            # joined pairs align across providers by (left_id, right_id)
            # and go through the same presence rule and decode as rows
            aligned: Dict[Tuple[int, int], Dict[int, Tuple[ShareRow, ShareRow]]] = {}
            for index, response in responses.items():
                for lid, rid, lrow, rrow in response["rows"]:
                    aligned.setdefault((lid, rid), {})[index] = (lrow, rrow)
            aligned = dict(sorted(aligned.items()))
            blamed: set = set()
            if policy == CHECKED:
                pairs = [
                    sides for _, sides in reconstruct_checked(
                        [left, right], aligned, set(responses), blamed
                    )
                ]
            else:
                kept = [
                    per_provider for per_provider in aligned.values()
                    if len(per_provider) >= self.threshold
                ]
                pairs = zip(
                    *(
                        sharing.reconstruct_rows(
                            [
                                {i: sides[side] for i, sides in per_provider.items()}
                                for per_provider in kept
                            ]
                        )
                        for side, sharing in enumerate((left, right))
                    )
                )
            rows: List[Row] = []
            for left_row, right_row in pairs:
                self.cost.record("interpolate", len(left_row) + len(right_row))
                if not (
                    left_rw.residual.matches(left_row)
                    and right_rw.residual.matches(right_row)
                ):
                    continue
                merged = join_row(query, left_row, right_row)
                if residual.matches(merged):
                    rows.append(merged)
            return rows, blamed

        rows = self._read(
            "join", request, [left_rw, right_rw], policy, query.left_table, decode
        )
        return project_join(query, rows)

    # -------------------------------------------------------------- dispatch --

    def execute(self, query) -> Union[List[Row], object, int]:
        """Execute any query-AST node (or SQL text)."""
        if isinstance(query, str):
            return self.sql(query)
        if isinstance(query, Select):
            return self.select(query)
        if isinstance(query, JoinSelect):
            return self.join(query)
        if isinstance(query, Insert):
            self.insert(query.table, query.row)
            return 1
        if isinstance(query, Update):
            return self.update(query)
        if isinstance(query, Delete):
            return self.delete(query)
        raise QueryError(f"unsupported query object {type(query).__name__}")

    def sql(self, text: str) -> Union[List[Row], object, int]:
        """Parse and execute one SQL statement."""
        with telemetry.span("query", sql=text):
            return self.execute(parse_sql(text))

    def explain(self, query) -> Dict[str, object]:
        """Describe how a query would execute, without executing it.

        Returns a plain dict: which conjuncts push down to providers (as
        plaintext intervals), what remains as a client-side residual, the
        execution strategy, and the read quorum.  SQL text is accepted.
        A SELECT's strategy is read off the same plan execution uses.
        """
        if isinstance(query, str):
            query = parse_sql(query)
        if isinstance(query, JoinSelect):
            return self._explain_join(query)
        if not isinstance(query, (Select, Update, Delete)):
            raise QueryError(f"cannot explain {type(query).__name__}")
        table = query.table
        sharing = self.sharing(table)
        predicate = query.where.bind(sharing.schema)
        rewritten = self._rewrite(predicate, sharing)
        plan: Dict[str, object] = {
            "table": table,
            "pushdown": [
                {"column": i.column, "low": i.low, "high": i.high}
                for i in rewritten.intervals
            ],
            "residual": (
                None if not rewritten.has_residual else repr(rewritten.residual)
            ),
            "provably_empty": rewritten.provably_empty,
            "read_quorum": self.cluster.read_quorum(),
            "estimated_selectivity": _estimate_selectivity(sharing, rewritten),
        }
        if isinstance(query, Select):
            read_plan = plan_select(
                sharing, query, rewritten, pushdown=not self.verified_reads
            )
            plan["strategy"] = explain_strategy(query, read_plan)
        else:
            plan["strategy"] = (
                "fetch matching rows, reconstruct, re-share changed columns"
                if isinstance(query, Update)
                else "fetch matching row ids, delete everywhere"
            )
        return plan

    def _explain_join(self, query: JoinSelect) -> Dict[str, object]:
        left = self.sharing(query.left_table)
        right = self.sharing(query.right_table)
        compatible = _join_compatible(query, left, right)
        if compatible:
            strategy = "provider-side hash join on deterministic shares"
        elif self.client_join_fallback:
            strategy = "fetch both sides, hash join at the client"
        else:
            strategy = "UNSUPPORTED (different domains; Sec. V-A)"
        return {
            "join": f"{query.left_table}.{query.left_column} = "
                    f"{query.right_table}.{query.right_column}",
            "domain_compatible": compatible,
            "strategy": strategy,
            "read_quorum": self.cluster.read_quorum(),
        }

    # ------------------------------------------------------------ accounting --

    def reset_accounting(self) -> None:
        """Zero client cost, provider costs, and network counters."""
        self.cost.reset()
        self.cluster.reset_accounting()


def _estimate_selectivity(sharing: TableSharing, rewritten) -> float:
    """Uniform-assumption selectivity of the pushed-down intervals.

    The product over intervals of (interval width / domain size) — the
    textbook independent-uniform estimate.  Residual conjuncts are not
    estimated (the client has no statistics for them); 1.0 means "full
    scan".  Purely informational, surfaced by :meth:`DataSource.explain`.
    """
    if rewritten.provably_empty:
        return 0.0
    estimate = 1.0
    for interval in rewritten.intervals:
        domain = sharing.op_scheme(interval.column).domain
        width = interval.high - interval.low + 1
        estimate *= min(1.0, max(0.0, width / domain.size))
    return estimate


def _join_compatible(
    query: JoinSelect, left: TableSharing, right: TableSharing
) -> bool:
    """Whether the join can run at the providers (Sec. V-A): both keys are
    order-preserving shares of the same domain."""
    return (
        left.is_searchable(query.left_column)
        and right.is_searchable(query.right_column)
        and left.domain_label(query.left_column)
        == right.domain_label(query.right_column)
    )


def _aligned(responses: Dict[int, Dict]) -> Dict[int, Dict[int, ShareRow]]:
    """Row responses aligned by row id: ``{row_id: {provider: shares}}``."""
    return align_by_row_id(rows_from_responses(responses))
