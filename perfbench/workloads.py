"""The three workloads: set-up, measured loop, oracle check, raw figures.

:func:`run` returns an :class:`Outcome` of raw samples and counters;
``run.py`` turns it into the printed metrics.  Two modes:

* untraced (``--trace 0``): set up ``setups`` times and keep the last
  deployment, warm up (``analytics``, ``oltp``), then run whole decks
  until ``--seconds`` have passed;
* traced (``--trace 1``): the same fixed amount of work twice, each time
  on a fresh deployment built from the same seed: phase A untraced,
  phase B with the layer wrappers and a ``telemetry.session`` on.  A
  against B gives the tracing overhead and the byte/message equality
  check.

Every oracle check runs outside the timed work: ``analytics`` checks
each deck's answers between decks, the others check after the timed loop.
"""

from __future__ import annotations

import gc
import os
import platform
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import DataSource, ProviderCluster, telemetry
from repro.core import kernels
from repro.providers.failures import FailureMode, Fault
from repro.service.service import QueryService

from oracle import OracleMismatch, SqliteOracle, check_rows_equal
from spans import ROOT, SpanRecorder
from statements import (
    N_PROVIDERS,
    THRESHOLD,
    AnalyticsGenerator,
    Statement,
    data_tables,
    oltp_scripts,
)

#: WAL flush policy of the ``oltp`` write path, as the program ships it.
WAL_POLICY = "fsync per group commit (TransactionManager defaults)"


@dataclass
class Sizes:
    """Table sizes and amounts of work for one workload."""

    employees: int
    manager_fraction: float = 0.1
    setups: int = 3
    warmup_decks: int = 2
    #: analytics: the decks whose byte and clock counts are reported;
    #: every run executes at least these, so the counts repeat exactly
    #: per seed.  All workloads: the work of each traced phase.
    fixed_decks: int = 8
    max_decks: int = 600
    clients: int = 1
    hot_size: int = 0


SIZES: Dict[str, Sizes] = {
    "analytics": Sizes(employees=10_000),
    "oltp": Sizes(employees=10_000, warmup_decks=1, clients=2, hot_size=500),
    # generating the tables takes under a second, where machine noise is
    # largest, so ingest sets up more times for a steadier median
    "ingest": Sizes(employees=20_000, setups=11),
}

#: ``--scale tiny``: the same code paths on tables small enough for the
#: self-test to finish in seconds.
TINY: Dict[str, Sizes] = {
    "analytics": Sizes(employees=600, setups=2, warmup_decks=1, fixed_decks=2, max_decks=40),
    "oltp": Sizes(
        employees=600, setups=2, warmup_decks=1, fixed_decks=2, max_decks=40,
        clients=2, hot_size=40,
    ),
    "ingest": Sizes(employees=800, setups=2),
}


@dataclass
class Outcome:
    """Raw figures of one run."""

    setup_s: List[float] = field(default_factory=list)
    #: (statement class, seconds) per successful op; per table on ingest
    samples: List[Tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: wall and process CPU seconds of the measured phase; ``cpu_s``
    #: leaves out ``aside_cpu_s``, the benchmark's own work in the phase
    #: (the speed gauge, the ``analytics`` oracle checks)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    aside_cpu_s: float = 0.0
    #: untraced runs: CPU seconds of each reference run of the speed gauge
    reference_s: List[float] = field(default_factory=list)
    #: ops, bytes, messages and modelled seconds behind the count metrics
    counted: Dict[str, float] = field(default_factory=dict)
    rows_returned: int = 0
    mismatches: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: traced runs only
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None
    stats_delta: Dict[str, float] = field(default_factory=dict)
    telemetry_counters: Dict[str, float] = field(default_factory=dict)

    def record_error(self, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(repr(exc)[:200])


class Tracing:
    """Opens a root span around each op when a recorder is installed."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder

    def root(self):
        return self.recorder.span(ROOT) if self.recorder else nullcontext()


UNTRACED = Tracing()


# ------------------------------------------------------------ speed gauge --

#: Seconds between two reference runs of the speed gauge.
GAUGE_INTERVAL_S = 0.1

_REFERENCE_DATA: Dict[str, object] = {}


def _reference_data() -> Dict[str, object]:
    """Fixed inputs of the reference computation (about 8 MB), built once."""
    if not _REFERENCE_DATA:
        import numpy

        rng = numpy.random.default_rng(20_090_401)
        _REFERENCE_DATA["chain"] = rng.permutation(100_000).tolist()
        _REFERENCE_DATA["table"] = rng.integers(0, 2**40, size=500_000, dtype=numpy.int64)
        _REFERENCE_DATA["picks"] = rng.integers(0, 500_000, size=40_000)
    return _REFERENCE_DATA


def reference_cpu_s() -> float:
    """CPU seconds of the calling thread on a fixed computation: a gauge
    of how fast the machine runs at this moment (about 5 ms on a 2-vCPU
    cloud VM).  Like the program it mixes interpreter work (integer
    arithmetic, dicts, sorting, strings) with memory-bound work (a
    pointer chase through a list, a numpy gather) over a working set
    larger than a core's cache.

    The cyclic collector is off meanwhile: the reference's allocations
    would otherwise start collections of the program's heap, whose cost
    grows with what the program holds and would land here.  Everything
    the reference allocates is freed by reference counting, so the
    collections the program's own allocations start are only put off."""
    data = _reference_data()
    chain, table, picks = data["chain"], data["table"], data["picks"]
    collecting = gc.isenabled()
    gc.disable()
    began = time.thread_time()
    x, acc, slots = 12345, 0, {}
    for i in range(3_000):
        x = (x * 1103515245 + 12345) % 2147483647
        acc += x % 97
        slots[x & 4095] = i
    ordered = sorted(slots.items(), key=lambda kv: kv[1])
    acc += len(",".join(str(key) for key, _ in ordered[:500]))
    at = 0
    for _ in range(8_000):
        at = chain[at]
    acc += at + int(table[picks].sum() % 65521)
    spent = time.thread_time() - began
    if collecting:
        gc.enable()
    return spent


class SpeedGauge:
    """Runs the reference computation on a thread of its own every
    ``GAUGE_INTERVAL_S`` while an untraced phase is measured.

    The machine's speed drifts by tens of percent over minutes and by up
    to a quarter from one second to the next, because other tenants
    share the host's cores and caches.  The mean reference CPU time over
    the phase measures how fast the machine ran while the program did;
    ``cpu_per_op_refs`` divides the program's CPU per op by it.  The
    gauge's own CPU time goes to ``outcome.aside_cpu_s``.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        _reference_data()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-gauge")

    def _run(self) -> None:
        began = time.thread_time()
        while True:
            self.outcome.reference_s.append(reference_cpu_s())
            if self._stop.wait(GAUGE_INTERVAL_S):
                break
        self.outcome.aside_cpu_s += time.thread_time() - began

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------- deployment --


def wire_counters(cluster: ProviderCluster, source: DataSource) -> Dict[str, float]:
    """Bytes, messages and the sim clock (network transfer plus modelled
    client and provider computation)."""
    return {
        "bytes": cluster.network.total_bytes,
        "messages": cluster.network.total_messages,
        "modelled_s": cluster.network.modelled_seconds
        + source.cost.modelled_seconds()
        + cluster.total_provider_cost().modelled_seconds(),
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def fresh_source(seed: int) -> Tuple[ProviderCluster, DataSource]:
    cluster = ProviderCluster(N_PROVIDERS, THRESHOLD)
    return cluster, DataSource(cluster, seed=seed)


def tamper_with(cluster: ProviderCluster, seed: int) -> None:
    """The self-test's fault: provider 0 (in every default read quorum)
    perturbs the shares it returns."""
    cluster.inject_fault(0, Fault(FailureMode.TAMPER, seed=seed))


def layer_stats(cluster: ProviderCluster, source: DataSource, service=None) -> Dict[str, float]:
    """Counters the program keeps itself, read before and after a phase."""
    rowcache = source.row_cache.stats
    kstats = kernels.kernel_stats()
    out = {
        "rowcache.row_hits": rowcache.row_hits,
        "rowcache.row_lookups": rowcache.row_hits + rowcache.row_misses,
        "rowcache.query_hits": rowcache.query_hits,
        "rowcache.query_lookups": rowcache.query_hits + rowcache.query_misses,
        "kernels.weight_hits": kstats.weight_hits + kstats.rational_hits,
        "kernels.weight_lookups": kstats.weight_hits
        + kstats.weight_misses
        + kstats.rational_hits
        + kstats.rational_misses,
        "providers.compares": cluster.total_provider_cost().count("compare"),
    }
    if service is not None:
        plans = service.plan_cache.stats()
        batcher = service.batcher.snapshot()
        txn = service.transaction_manager().stats()
        out.update(
            {
                "plancache.hits": plans["plan_hits"] + plans["statement_hits"],
                "plancache.lookups": plans["plan_hits"]
                + plans["plan_misses"]
                + plans["statement_hits"]
                + plans["statement_misses"],
                "batcher.tickets": batcher["tickets_total"],
                "batcher.rounds": batcher["rounds_total"],
                "txn.committed": txn["committed"],
                "txn.wal_fsyncs": txn["wal_fsyncs"],
                "txn.wal_bytes": txn["wal_bytes"],
                "txn.groups": txn["group_commit"]["groups_flushed"],
                "txn.txns_flushed": txn["group_commit"]["txns_flushed"],
            }
        )
    return out


def returned_rows(answer: object) -> int:
    return len(answer) if isinstance(answer, list) else 1


# -------------------------------------------------------------- analytics --


class Analytics:
    """Closed loop, one client, read-only, through ``DataSource.sql``."""

    def __init__(self, sizes: Sizes, seed: int, tamper: bool, workdir: str) -> None:
        employees, managers = data_tables(sizes.employees, seed, sizes.manager_fraction)
        self.oracle = SqliteOracle([employees, managers])
        generator = AnalyticsGenerator(employees, managers, seed)
        self.warmup = [generator.deck() for _ in range(sizes.warmup_decks)]
        self.decks = [generator.deck() for _ in range(sizes.max_decks)]
        self.cluster, self.source = fresh_source(seed)
        self.source.outsource_table(employees)
        self.source.outsource_table(managers)
        if tamper:
            tamper_with(self.cluster, seed)
        self.mismatches: List[str] = []

    def _loop(self, decks, seconds, min_decks, tracing, outcome, on_prefix=None) -> float:
        """Whole decks until ``seconds`` pass, and at least ``min_decks``.

        Each deck's answers are checked against the oracle after the deck,
        outside the returned wall time and the measured CPU, and then
        dropped, so the heap stays the same size however many decks run.
        """
        start = time.perf_counter()
        aside = 0.0
        for done, deck in enumerate(decks, start=1):
            answers = []
            for statement in deck:
                if outcome is not None:
                    outcome.attempted += 1
                began = time.perf_counter()
                try:
                    with tracing.root():
                        answer = self.source.sql(statement.sql)
                except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                    if outcome is not None:
                        outcome.record_error(exc)
                    continue
                elapsed = time.perf_counter() - began
                answers.append((statement, answer))
                if outcome is not None:
                    outcome.samples.append((statement.kind, elapsed))
                    outcome.rows_returned += returned_rows(answer)
            began, cpu = time.perf_counter(), time.thread_time()
            for statement, answer in answers:
                try:
                    self.oracle.check(statement.kind, statement.sql, answer)
                except OracleMismatch as exc:
                    self.mismatches.append(str(exc))
            if done == min_decks and on_prefix is not None:
                on_prefix()
            aside += time.perf_counter() - began
            if outcome is not None:
                outcome.aside_cpu_s += time.thread_time() - cpu
            spent = time.perf_counter() - start - aside
            if done >= min_decks and spent >= seconds:
                break
        return spent

    def warm(self) -> None:
        self._loop(self.warmup, 0.0, len(self.warmup), UNTRACED, None)

    def measure(self, sizes: Sizes, seconds: float, tracing: Tracing, outcome: Outcome) -> None:
        before = wire_counters(self.cluster, self.source)
        stats_before = layer_stats(self.cluster, self.source)
        prefix_ops = sizes.fixed_decks * len(self.decks[0])

        def on_prefix() -> None:
            outcome.counted = delta(wire_counters(self.cluster, self.source), before)
            outcome.counted["ops"] = prefix_ops
            outcome.stats_delta = delta(layer_stats(self.cluster, self.source), stats_before)

        outcome.wall_s = self._loop(
            self.decks, seconds, sizes.fixed_decks, tracing, outcome, on_prefix
        )

    def check(self, outcome: Outcome) -> None:
        outcome.mismatches.extend(self.mismatches)

    def close(self) -> None:
        self.oracle.close()


# ------------------------------------------------------------------- oltp --


class _Client:
    """One closed-loop ``oltp`` client with its plaintext mirror."""

    def __init__(self, script, base_rows: Dict[int, Dict[str, object]]) -> None:
        self.script = script
        self.mirror = {eid: dict(base_rows[eid]) for eid in script.hot}
        self.outcome = Outcome()
        self.end = 0.0

    def _check(self, statement: Statement, answer: object) -> None:
        kind, key = statement.kind, statement.key
        if kind == "read":
            want = [self.mirror[key]] if key in self.mirror else []
            if answer != want:
                self.outcome.mismatches.append(
                    f"read {statement.sql!r}: got {answer!r}, want {want!r}"
                )
            return
        if answer != 1:
            self.outcome.mismatches.append(f"{statement.sql!r}: affected {answer!r}, want 1")
        if kind == "add_salary":
            self.mirror[key]["salary"] += statement.arg
        elif kind == "set_department":
            self.mirror[key]["department"] = statement.arg
        elif kind == "insert":
            self.mirror[key] = dict(statement.arg)
        elif kind == "delete":
            del self.mirror[key]

    def run(self, service, decks, seconds, min_decks, tracing, record: bool) -> None:
        """Whole decks until ``seconds`` pass, and at least ``min_decks``.

        Each answer is checked against the mirror after its latency is
        taken; the check is a dict comparison.
        """
        outcome = self.outcome
        start = time.perf_counter()
        for done, deck in enumerate(decks, start=1):
            for statement in deck:
                outcome.attempted += record
                began = time.perf_counter()
                try:
                    with tracing.root():
                        answer = service.execute(statement.sql)
                except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                    if record:
                        outcome.record_error(exc)
                    continue
                elapsed = time.perf_counter() - began
                self._check(statement, answer)
                if record:
                    outcome.samples.append((statement.kind, elapsed))
                    outcome.rows_returned += returned_rows(answer)
            if done >= min_decks and time.perf_counter() - start >= seconds:
                break
        self.end = time.perf_counter()


class Oltp:
    """Closed loop, two client threads, through ``QueryService(transactional=True)``."""

    def __init__(self, sizes: Sizes, seed: int, tamper: bool, workdir: str) -> None:
        employees, _ = data_tables(sizes.employees, seed, sizes.manager_fraction)
        self.base_rows = {row["eid"]: dict(row) for row in employees.rows()}
        scripts = oltp_scripts(employees, seed, sizes.clients, sizes.hot_size, sizes.max_decks)
        self.warmups = [[s.deck() for _ in range(sizes.warmup_decks)] for s in scripts]
        self.decks = [[s.deck() for _ in range(sizes.max_decks)] for s in scripts]
        self.cluster, self.source = fresh_source(seed)
        self.source.outsource_table(employees)
        if tamper:
            tamper_with(self.cluster, seed)
        self.service = QueryService(self.source, transactional=True)
        self.wal_path = os.path.join(workdir, f"wal-{os.getpid()}.log")
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        self.service.transaction_manager(wal_path=self.wal_path)
        self.clients = [_Client(script, self.base_rows) for script in scripts]

    def _concurrently(self, target: Callable[[int], None]) -> None:
        threads = [
            threading.Thread(target=target, args=(i,), name=f"perfbench-oltp-{i}")
            for i in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def warm(self) -> None:
        self._concurrently(
            lambda i: self.clients[i].run(
                self.service, self.warmups[i], 0.0, len(self.warmups[i]), UNTRACED, False
            )
        )

    def measure(self, sizes: Sizes, seconds: float, tracing: Tracing, outcome: Outcome) -> None:
        # traced phases run a fixed number of decks; untraced runs are timed
        decks = self.decks if seconds > 0 else [d[: sizes.fixed_decks] for d in self.decks]
        min_decks = 1 if seconds > 0 else sizes.fixed_decks
        before = wire_counters(self.cluster, self.source)
        stats_before = layer_stats(self.cluster, self.source, self.service)
        start = time.perf_counter()
        self._concurrently(
            lambda i: self.clients[i].run(
                self.service, decks[i], seconds, min_decks, tracing, True
            )
        )
        outcome.wall_s = max(client.end for client in self.clients) - start
        for client in self.clients:
            outcome.samples.extend(client.outcome.samples)
            outcome.attempted += client.outcome.attempted
            outcome.failed += client.outcome.failed
            outcome.errors.extend(client.outcome.errors)
            outcome.rows_returned += client.outcome.rows_returned
        outcome.counted = delta(wire_counters(self.cluster, self.source), before)
        outcome.counted["ops"] = len(outcome.samples)
        outcome.stats_delta = delta(
            layer_stats(self.cluster, self.source, self.service), stats_before
        )

    def check(self, outcome: Outcome) -> None:
        expected = dict(self.base_rows)
        for client in self.clients:
            for eid in client.script.inserted:
                expected.pop(eid, None)
            expected.update(client.mirror)
            outcome.mismatches.extend(client.outcome.mismatches)
        outcome.attempted += 1
        try:
            check_rows_equal(
                "oltp full scan vs merged client mirrors",
                self.service.execute("SELECT * FROM Employees"),
                expected.values(),
            )
        except OracleMismatch as exc:
            outcome.mismatches.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - a check that errors is a failure
            outcome.record_error(exc)

    def close(self) -> None:
        self.service.close()
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)


# ----------------------------------------------------------------- ingest --


class Ingest:
    """One client outsources a fresh Employees + Managers pair; set-up is
    generating the tables, each timed load gets a fresh cluster."""

    def __init__(self, sizes: Sizes, seed: int, tamper: bool, workdir: str) -> None:
        self.seed = seed
        self.tamper = tamper
        self.tables = data_tables(sizes.employees, seed, sizes.manager_fraction)
        self.rows = sum(len(table) for table in self.tables)
        self.source: Optional[DataSource] = None

    def warm(self) -> None:
        """Ingest is cold by definition."""

    def measure(self, sizes: Sizes, seconds: float, tracing: Tracing, outcome: Outcome) -> None:
        start = time.perf_counter()
        while True:
            self.cluster = self.source = None
            gc.collect()
            cluster, source = fresh_source(self.seed)
            for table in self.tables:
                outcome.attempted += 1
                began = time.perf_counter()
                try:
                    with tracing.root():
                        source.outsource_table(table)
                except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                    outcome.record_error(exc)
                    continue
                outcome.samples.append((table.name, time.perf_counter() - began))
            self.cluster, self.source = cluster, source
            if not outcome.counted:
                outcome.counted = wire_counters(cluster, source)
                outcome.counted["ops"] = self.rows
                outcome.stats_delta = layer_stats(cluster, source)
            if time.perf_counter() - start >= seconds:
                break
        outcome.wall_s = sum(seconds for _, seconds in outcome.samples)

    def check(self, outcome: Outcome) -> None:
        """COUNT and SUM audit plus a checked scan of a sample range."""
        employees, managers = self.tables
        rows = employees.rows()
        eids = sorted(row["eid"] for row in rows)
        lo, hi = eids[len(eids) // 3], eids[len(eids) // 3 + len(eids) // 100]
        if self.tamper:
            tamper_with(self.cluster, self.seed)
        audits = [
            ("SELECT COUNT(*) FROM Employees", len(rows)),
            ("SELECT SUM(salary) FROM Employees", sum(row["salary"] for row in rows)),
            ("SELECT COUNT(*) FROM Managers", len(managers)),
        ]
        try:
            for sql, want in audits:
                outcome.attempted += 1
                got = self.source.sql(sql)
                if got != want:
                    outcome.mismatches.append(f"ingest audit {sql!r}: got {got!r}, want {want!r}")
            outcome.attempted += 1
            check_rows_equal(
                "ingest sample range",
                self.source.sql(f"SELECT * FROM Employees WHERE eid BETWEEN {lo} AND {hi}"),
                [row for row in rows if lo <= row["eid"] <= hi],
            )
        except OracleMismatch as exc:
            outcome.mismatches.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - an audit that errors is a failure
            outcome.record_error(exc)

    def close(self) -> None:
        pass


WORKLOADS = {"analytics": Analytics, "oltp": Oltp, "ingest": Ingest}


# ----------------------------------------------------------------- driver --


def _untraced(kind, sizes: Sizes, seed, seconds, tamper, workdir) -> Outcome:
    outcome = Outcome()
    deployment = None
    for _ in range(sizes.setups):
        if deployment is not None:
            deployment.close()
        deployment = None
        gc.collect()
        began = time.perf_counter()
        deployment = kind(sizes, seed, tamper, workdir)
        outcome.setup_s.append(time.perf_counter() - began)
    deployment.warm()
    cpu_start = time.process_time()
    with SpeedGauge(outcome):
        deployment.measure(sizes, seconds, UNTRACED, outcome)
    outcome.cpu_s = time.process_time() - cpu_start - outcome.aside_cpu_s
    deployment.check(outcome)
    deployment.close()
    return outcome


def _phase(kind, sizes: Sizes, seed, tamper, workdir, traced: bool, outcome: Outcome) -> Outcome:
    """One fixed-work phase of a traced run on a fresh deployment."""
    gc.collect()
    deployment = kind(sizes, seed, tamper, workdir)
    phase = Outcome()
    deployment.warm()
    if traced:
        recorder = SpanRecorder()
        with recorder.installed(), telemetry.session() as hub:
            deployment.measure(sizes, 0.0, Tracing(recorder), phase)
            outcome.telemetry_counters = hub.registry.snapshot()["counters"]
        outcome.recorder = recorder
        outcome.stats_delta = phase.stats_delta
    else:
        deployment.measure(sizes, 0.0, UNTRACED, phase)
    deployment.check(phase)
    deployment.close()
    outcome.attempted += phase.attempted
    outcome.failed += phase.failed
    outcome.errors.extend(phase.errors)
    outcome.mismatches.extend(phase.mismatches)
    return phase


def run(workload: str, sizes: Sizes, seed: int, seconds: float, trace: bool,
        tamper: bool, workdir: str) -> Outcome:
    kind = WORKLOADS[workload]
    if not trace:
        return _untraced(kind, sizes, seed, seconds, tamper, workdir)
    outcome = Outcome()
    for name, traced in (("A", False), ("B", True)):
        phase = _phase(kind, sizes, seed, tamper, workdir, traced, outcome)
        outcome.phases[name] = dict(
            phase.counted,
            wall_s=phase.wall_s,
            measured_ops=len(phase.samples),
            rows_returned=phase.rows_returned,
        )
    return outcome


def environment(workload: str, sizes: Sizes, seed: int, seconds: float) -> Dict[str, object]:
    """What a result depends on besides the code."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "kernel_backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "n_providers": N_PROVIDERS,
        "threshold": THRESHOLD,
        "employees_rows": sizes.employees,
        "managers_rows": int(sizes.employees * sizes.manager_fraction),
        "clients": sizes.clients,
        "setups": sizes.setups,
    }
    if workload == "oltp":
        env["hot_keys_per_client"] = sizes.hot_size
        env["wal_flush_policy"] = WAL_POLICY
    return env
