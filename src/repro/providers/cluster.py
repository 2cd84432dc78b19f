"""The provider cluster: fan-out, quorum collection, failure routing.

The data source talks to ``n`` providers through one
:class:`ProviderCluster`, which

* serialises every request/response through the simulated network so the
  benchmarks get byte-exact communication accounting,
* collects responses, routing around crashed providers,
* enforces the quorum rule: reads need ``k`` responses (reconstruction
  threshold), writes are best-effort to all live providers (a provider
  that was down during a write is stale — handled by the availability
  experiments, EXP-T7).

Dispatch modes
--------------

``dispatch="parallel"`` (the default) fans each broadcast out through a
shared thread pool: every addressed provider executes concurrently, and
the modelled latency of the round is the slowest round trip the client
had to wait for — ``max`` over providers for writes, the k-th fastest
round trip for reads issued with ``quorum="first_k"`` (the client can
start reconstructing the moment a quorum has answered; Sec. III needs
*any* k shares).  ``dispatch="sequential"`` preserves the original
one-at-a-time model whose latency is the *sum* of round trips.

Byte accounting is identical — and deterministic — in both modes: all
network counters are recorded on the calling thread in provider-index
order, never from pool workers, so the same seed produces the same
per-link byte counts regardless of thread scheduling.

Resilience
----------

Three mechanisms turn "any k of n shares suffice" (Sec. III) from a
theorem into an end-to-end read guarantee:

* **Per-RPC retry with backoff** (:class:`RetryPolicy`): an unavailable
  provider costs a modelled ``timeout_seconds`` of clock; with
  ``max_attempts > 1`` the RPC is re-sent after an exponential backoff.
  Retries are unconditional per provider (not gated on quorum state), so
  byte accounting stays equal across dispatch modes.  The default policy
  performs **no** retries, preserving the historical accounting.
* **Quorum failover** (``broadcast(..., failover=True)``): when a
  ``first_k`` round comes up short, the missing sub-requests are
  re-dispatched to spare live providers — an extra accounted round per
  failover wave — instead of raising :class:`QuorumError`.  The error
  still surfaces when no spares remain.
* **Health tracking** (:class:`~repro.providers.health.HealthTracker`):
  consecutive failures quarantine a provider for a cooldown measured on
  the modelled clock; :meth:`ProviderCluster.read_quorum` prefers
  healthy providers, so degraded ones rotate out of the default quorum
  (and failover spares are picked in the same health order).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    ProviderUnavailableError,
    QuorumError,
)
from ..sim.costmodel import CostRecorder
from ..sim.network import SimulatedNetwork
from .breakers import BreakerBoard
from .failures import Fault
from .health import HealthTracker
from .provider import ShareProvider

CLIENT_NAME = "client"

#: Valid dispatch modes.
DISPATCH_MODES = ("parallel", "sequential")

#: Valid quorum modes for :meth:`ProviderCluster.call_all`.
QUORUM_MODES = ("all", "first_k")

#: One pool shared by every cluster in the process.  Providers are
#: independent objects (no shared mutable state between them), handlers
#: never re-enter the cluster, and all accounting happens on the calling
#: thread — so a small shared pool is safe and avoids spawning threads
#: per cluster in test suites that build hundreds of them.
_SHARED_EXECUTOR: Optional[ThreadPoolExecutor] = None

#: Worker-thread name prefix (the thread-leak regression test keys on it).
EXECUTOR_THREAD_PREFIX = "repro-provider"

#: Size of the shared pool; also the per-round fan-out ceiling.
EXECUTOR_MAX_WORKERS = 16


@dataclass(frozen=True)
class RetryPolicy:
    """Per-RPC retry/backoff/timeout configuration.

    ``max_attempts=1`` (the default) means fail-fast per RPC — exactly
    the historical behaviour, so default clusters account byte-for-byte
    like they always did.  ``timeout_seconds`` is the modelled clock
    charge for waiting out an unavailable provider (the request bytes
    were spent; the time was too).  Retry ``j`` (1-based) waits
    ``backoff_seconds * backoff_multiplier**(j-1)`` before re-sending.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    timeout_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.timeout_seconds < 0:
            raise ConfigurationError("backoff/timeout seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def backoff_for(self, retry_number: int) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        return self.backoff_seconds * self.backoff_multiplier ** (
            retry_number - 1
        )


def shared_executor() -> ThreadPoolExecutor:
    """The process-wide provider fan-out pool (created once, on demand).

    Clusters use this pool unless one was injected at construction, so
    the service scheduler's combined rounds and plain per-query fan-outs
    run on the same threads — no per-call pool construction anywhere.
    """
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is None:
        _SHARED_EXECUTOR = ThreadPoolExecutor(
            max_workers=EXECUTOR_MAX_WORKERS,
            thread_name_prefix=EXECUTOR_THREAD_PREFIX,
        )
    return _SHARED_EXECUTOR


def shutdown_shared_executor(wait: bool = True) -> None:
    """Explicitly shut the shared pool down (tests, embedders, atexit).

    The next fan-out after a shutdown lazily creates a fresh pool, so
    this is safe to call between test modules.
    """
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is not None:
        _SHARED_EXECUTOR.shutdown(wait=wait)
        _SHARED_EXECUTOR = None


def _record_link(src: str, dst: str, size: int) -> None:
    """Mirror one network message into the telemetry registry.

    Called at the exact sites where :class:`SimulatedNetwork` records a
    message, with the size the network reported — so the telemetry
    counters are *definitionally* equal to the cluster's existing byte
    accounting (asserted by ``tests/telemetry/test_instrumentation.py``).
    """
    telemetry.count("net.messages", src=src, dst=dst)
    telemetry.count("net.bytes", size, src=src, dst=dst)


class ProviderCluster:
    """``n`` share providers behind a byte-accounted network."""

    def __init__(
        self,
        n_providers: int,
        threshold: int,
        network: Optional[SimulatedNetwork] = None,
        dispatch: str = "parallel",
        executor: Optional[ThreadPoolExecutor] = None,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthTracker] = None,
        breakers: Optional[BreakerBoard] = None,
        name_prefix: str = "",
    ) -> None:
        # constructor misuse is a configuration bug, not a runtime quorum
        # loss — callers legitimately catch QuorumError around reads
        if n_providers < 1:
            raise ConfigurationError(
                f"need at least one provider, got {n_providers}"
            )
        if not 1 <= threshold <= n_providers:
            raise ConfigurationError(
                f"threshold k={threshold} must satisfy 1 <= k <= n={n_providers}"
            )
        if dispatch not in DISPATCH_MODES:
            raise ConfigurationError(
                f"unknown dispatch mode {dispatch!r}; expected one of "
                f"{DISPATCH_MODES}"
            )
        self.threshold = threshold
        self.dispatch = dispatch
        self.network = network or SimulatedNetwork()
        self._executor = executor
        self.retry = retry or RetryPolicy()
        # name_prefix disambiguates clusters sharing one telemetry hub —
        # a sharded deployment runs several groups whose providers would
        # otherwise all report as DAS1..DASn
        self.providers: List[ShareProvider] = [
            ShareProvider(f"{name_prefix}DAS{i + 1}") for i in range(n_providers)
        ]
        # the clocks close over the network, not ``self``: a closure over
        # the cluster would make cluster -> health -> clock -> cluster a
        # reference cycle, keeping a dropped deployment (and its share
        # store) alive until the cyclic collector runs
        network = self.network
        self.health = health or HealthTracker(
            n_providers,
            clock=lambda: network.modelled_seconds,
            names=[p.name for p in self.providers],
        )
        # Opt-in: clusters without a board keep the exact historical
        # accounting (every RPC dispatched, full timeout charged on
        # unavailability).  Overload-facing callers install one.
        self.breakers = breakers

    def install_breakers(self, **kwargs: object) -> BreakerBoard:
        """Create and attach a :class:`BreakerBoard` over this cluster.

        The board reads the cluster's modelled clock, so breaker
        open/half-open trajectories are deterministic per seed.  Keyword
        arguments are forwarded (``bulkhead_limit``, ``window``,
        ``failure_threshold``, ``min_calls``, ``open_seconds``,
        ``half_open_probes``).
        """
        network = self.network
        self.breakers = BreakerBoard(
            self.n_providers,
            clock=lambda: network.modelled_seconds,
            names=[p.name for p in self.providers],
            **kwargs,
        )
        return self.breakers

    @property
    def n_providers(self) -> int:
        return len(self.providers)

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The fan-out pool: the injected one, else the shared singleton."""
        return self._executor if self._executor is not None else shared_executor()

    # -- fault management ---------------------------------------------------------

    def inject_fault(self, provider_index: int, fault: Fault) -> None:
        telemetry.count(
            "faults.injected",
            mode=fault.mode.value,
            provider=self.providers[provider_index].name,
        )
        self.providers[provider_index].inject_fault(fault)

    def clear_faults(self) -> None:
        for provider in self.providers:
            provider.clear_fault()

    def live_provider_indexes(self) -> List[int]:
        """Providers not currently fail-stopped.

        A delayed crash (``Fault(CRASH, after_requests=m)``) counts as
        live until its budget is spent — exactly the window in which a
        quorum can select it and then lose it mid-round, which the
        failover path covers.
        """
        return [
            i
            for i, p in enumerate(self.providers)
            if p.fault is None or not p.fault.crash_active
        ]

    # -- RPC ---------------------------------------------------------------------------

    def call_one(self, provider_index: int, method: str, request: Dict) -> Dict:
        """One accounted round trip to one provider, with per-RPC retries.

        Raises :class:`ProviderUnavailableError` if the provider is down —
        after the request bytes were spent and the modelled timeout was
        charged, as in a real timeout.  With ``retry.max_attempts > 1``
        the request is re-sent after an exponential backoff; each attempt
        spends request bytes again.
        """
        policy = self.retry
        attempts = policy.max_attempts
        for attempt in range(1, attempts + 1):
            try:
                return self._call_one_attempt(provider_index, method, request)
            except CircuitOpenError:
                # a client-side fast fail spent nothing; the breaker will
                # not admit another attempt either — retrying is pointless
                raise
            except ProviderUnavailableError:
                if attempt >= attempts:
                    raise
                telemetry.count(
                    "fanout.retries", provider=self.providers[provider_index].name
                )
                self.network.advance_clock(policy.backoff_for(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _fast_fail_check(self, provider_index: int) -> None:
        """Raise :class:`CircuitOpenError` if the breaker refuses the RPC.

        The refusal is entirely client-side: no bytes leave, no modelled
        timeout is charged, and the health tracker is not told (nothing
        new was learned about the provider).
        """
        board = self.breakers
        if board is not None and not board.allow(provider_index):
            provider = self.providers[provider_index]
            telemetry.count("breaker.fast_fail", provider=provider.name)
            raise CircuitOpenError(
                f"circuit open for provider {provider.name}: fast fail"
            )

    def _guarded_handle(
        self, provider_index: int, method: str, request: Dict
    ) -> Dict:
        """``provider.handle`` behind the provider's bulkhead (if any).

        A full bulkhead rejects immediately and counts as unavailability
        — the caller's failure paths (timeout charge, health, breaker)
        then apply exactly as for a crashed provider.
        """
        board = self.breakers
        if board is None:
            return self.providers[provider_index].handle(method, request)
        if not board.try_enter(provider_index):
            raise ProviderUnavailableError(
                f"provider {self.providers[provider_index].name}: "
                f"bulkhead full (concurrency cap reached)"
            )
        try:
            return self.providers[provider_index].handle(method, request)
        finally:
            board.exit(provider_index)

    def _call_one_attempt(
        self, provider_index: int, method: str, request: Dict
    ) -> Dict:
        """One attempt: request bytes, handler, response bytes or timeout."""
        self._fast_fail_check(provider_index)
        provider = self.providers[provider_index]
        with telemetry.span("rpc", provider=provider.name, method=method) as sp:
            request_bytes = self.network.send(
                CLIENT_NAME, provider.name, {"method": method, **request}
            )
            _record_link(CLIENT_NAME, provider.name, request_bytes)
            try:
                response = self._guarded_handle(provider_index, method, request)
            except ProviderUnavailableError:
                telemetry.count("fanout.unavailable", provider=provider.name)
                sp.set(outcome="unavailable", request_bytes=request_bytes)
                # the client waited the full timeout for a response that
                # never came; charge it on the modelled clock
                self.network.advance_clock(self.retry.timeout_seconds)
                self.health.record_failure(provider_index)
                if self.breakers is not None:
                    self.breakers.record_failure(provider_index)
                raise
            response_bytes = self.network.send(provider.name, CLIENT_NAME, response)
            _record_link(provider.name, CLIENT_NAME, response_bytes)
            sp.set(
                outcome="ok",
                request_bytes=request_bytes,
                response_bytes=response_bytes,
            )
        self.health.record_success(provider_index)
        if self.breakers is not None:
            self.breakers.record_success(provider_index)
        return response

    def call_all(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int] = None,
        quorum: str = "all",
    ) -> Dict[int, Dict]:
        """Fan a per-provider request map out; collect responses.

        ``minimum=None`` means "need every *addressed* provider" (writes to
        the live set); an integer demands at least that many successes and
        raises :class:`QuorumError` below it, naming the failed providers.

        ``quorum`` shapes the *modelled latency* of a parallel round:
        ``"all"`` waits for every response (max round trip), ``"first_k"``
        models a read that proceeds as soon as ``minimum`` providers have
        answered (the minimum-th fastest round trip).  Responses and byte
        accounting are identical in both modes — straggler responses still
        arrive and are still counted; only the waiting time differs.

        Provider-side errors (anything other than unavailability) surface
        only after the whole round has been drained, in BOTH dispatch
        modes: every addressed provider's request — and every successful
        response — is accounted before the first error is re-raised, so
        the two modes agree byte-for-byte even on failing rounds.
        """
        responses, failures = self._call_round(method, requests, minimum, quorum)
        required = len(requests) if minimum is None else minimum
        if len(responses) < required:
            error = QuorumError(
                f"{method}: only {len(responses)}/{len(requests)} providers "
                f"responded (need {required}); failures: {failures}"
            )
            # carry the partial round so a failover-capable caller (see
            # BatchingCluster.broadcast) can continue instead of re-issuing
            error.partial_responses = responses
            error.failures = failures
            raise error
        return responses

    def _call_round(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int],
        quorum: str,
    ) -> Tuple[Dict[int, Dict], Dict[int, str]]:
        """One fan-out round (with per-RPC retries); no quorum enforcement.

        Returns ``(responses, failures)`` so callers choose the policy on
        shortfall: :meth:`call_all` raises, the failover path re-dispatches
        to spares.  Provider-side errors still drain-then-raise here.
        """
        if quorum not in QUORUM_MODES:
            raise ConfigurationError(
                f"unknown quorum mode {quorum!r}; expected one of {QUORUM_MODES}"
            )
        with telemetry.span(
            "fan_out",
            method=method,
            addressed=len(requests),
            quorum=quorum,
            dispatch=self.dispatch,
            minimum=len(requests) if minimum is None else minimum,
        ) as sp:
            if self.dispatch == "parallel" and len(requests) > 1:
                return self._call_all_parallel(method, requests, minimum, quorum, sp)
            responses: Dict[int, Dict] = {}
            failures: Dict[int, str] = {}
            error: Optional[BaseException] = None
            for index, request in sorted(requests.items()):
                try:
                    responses[index] = self.call_one(index, method, request)
                except ProviderUnavailableError as exc:
                    failures[index] = str(exc)
                except Exception as exc:  # drain the round before surfacing
                    if error is None:
                        error = exc
            sp.set(responded=len(responses), unavailable=len(failures))
            if error is not None:
                raise error
            return responses, failures

    def _call_all_parallel(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int],
        quorum: str,
        fan_span=telemetry.NULL_SPAN,
    ) -> Tuple[Dict[int, Dict], Dict[int, str]]:
        """Thread-pool fan-out with deterministic, index-ordered accounting.

        All network sends happen here on the calling thread (requests in
        index order, then responses in index order); pool workers run only
        ``provider.handle``, which touches nothing but that provider's own
        storage and counters.

        Retries run as additional waves over the providers that were
        unavailable, unconditionally up to ``retry.max_attempts`` — the
        same per-provider attempt count the sequential path makes, so the
        two modes stay byte-identical.  Each wave charges its backoff plus
        its own round time on the modelled clock.

        The modelled clock advances by the round's elapsed time even when
        a provider-side error is drained — the bytes were spent, so the
        time was too (keeps byte and clock accounting consistent; the
        sequential path has the same drain-then-raise semantics).
        """
        policy = self.retry
        responses: Dict[int, Dict] = {}
        failures: Dict[int, str] = {}
        all_round_trips: Dict[int, float] = {}
        error: Optional[BaseException] = None
        elapsed_total = 0.0
        pending = sorted(requests.items())
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if self.breakers is not None:
                # open breakers fail fast client-side: no bytes, no
                # timeout contribution, no retry waves for them — the
                # whole point is that a black-holed provider stops
                # costing modelled clock under overload
                admitted: List[Tuple[int, Dict]] = []
                for index, request in pending:
                    if self.breakers.allow(index):
                        admitted.append((index, request))
                    else:
                        provider = self.providers[index]
                        telemetry.count(
                            "breaker.fast_fail", provider=provider.name
                        )
                        failures[index] = (
                            f"circuit open for provider {provider.name}: "
                            f"fast fail"
                        )
                pending = admitted
                if not pending:
                    break
            if attempt > 1:
                backoff = policy.backoff_for(attempt - 1)
                elapsed_total += backoff
                for index, _ in pending:
                    telemetry.count(
                        "fanout.retries", provider=self.providers[index].name
                    )
            request_seconds: Dict[int, float] = {}
            request_bytes: Dict[int, int] = {}
            for index, request in pending:
                provider = self.providers[index]
                size, seconds = self.network.send_unclocked(
                    CLIENT_NAME, provider.name, {"method": method, **request}
                )
                _record_link(CLIENT_NAME, provider.name, size)
                request_seconds[index] = seconds
                request_bytes[index] = size
            pool = self.executor
            futures: Dict[int, Future] = {
                index: pool.submit(self._guarded_handle, index, method, request)
                for index, request in pending
            }
            round_trips: Dict[int, float] = {}
            wave_failed: List[Tuple[int, Dict]] = []
            for index, request in pending:
                provider = self.providers[index]
                with telemetry.span(
                    "rpc", provider=provider.name, method=method
                ) as sp:
                    sp.set(request_bytes=request_bytes[index])
                    try:
                        response = futures[index].result()
                    except ProviderUnavailableError as exc:
                        failures[index] = str(exc)
                        wave_failed.append((index, request))
                        telemetry.count(
                            "fanout.unavailable", provider=provider.name
                        )
                        sp.set(outcome="unavailable")
                        self.health.record_failure(index)
                        if self.breakers is not None:
                            self.breakers.record_failure(index)
                        continue
                    except Exception as exc:  # surface after drain
                        if error is None:
                            error = exc
                        sp.set(outcome="error", error=type(exc).__name__)
                        continue
                    size, seconds = self.network.send_unclocked(
                        provider.name, CLIENT_NAME, response
                    )
                    _record_link(provider.name, CLIENT_NAME, size)
                    responses[index] = response
                    failures.pop(index, None)
                    round_trips[index] = request_seconds[index] + seconds
                    sp.set(
                        outcome="ok",
                        response_bytes=size,
                        rtt_seconds=round_trips[index],
                    )
                    self.health.record_success(index)
                    if self.breakers is not None:
                        self.breakers.record_success(index)
            all_round_trips.update(round_trips)
            # the first wave waits per the caller's quorum shape; retry
            # waves wait on everyone they re-addressed
            wave_minimum = minimum if attempt == 1 else None
            wave_quorum = quorum if attempt == 1 else "all"
            elapsed_total += self._round_elapsed(
                request_seconds,
                round_trips,
                wave_minimum,
                wave_quorum,
                n_unavailable=len(wave_failed),
                timeout_seconds=policy.timeout_seconds,
            )
            pending = wave_failed
        self.network.advance_clock(elapsed_total)
        if telemetry.is_enabled():
            telemetry.observe(
                "fanout.round_seconds", elapsed_total, method=method, quorum=quorum
            )
            fan_span.set(round_seconds=elapsed_total)
            if quorum == "first_k" and minimum is not None:
                stragglers = max(0, len(all_round_trips) - minimum)
                telemetry.count("fanout.stragglers", stragglers)
                fan_span.set(stragglers=stragglers)
        if error is not None:
            raise error
        fan_span.set(responded=len(responses), unavailable=len(failures))
        return responses, failures

    @staticmethod
    def _round_elapsed(
        request_seconds: Dict[int, float],
        round_trips: Dict[int, float],
        minimum: Optional[int],
        quorum: str,
        n_unavailable: int = 0,
        timeout_seconds: float = 0.0,
    ) -> float:
        """Modelled elapsed time of one parallel fan-out round.

        Unavailable providers charge ``timeout_seconds`` — unless a
        ``first_k`` round met its quorum, in which case the client
        proceeded at the k-th fastest response and never waited out the
        timeouts.
        """
        # sending the n requests overlaps; the client is busy until the
        # slowest request has left, even if that provider never answers
        send_wave = max(request_seconds.values(), default=0.0)
        if (
            quorum == "first_k"
            and minimum is not None
            and len(round_trips) >= minimum
        ):
            waited = sorted(round_trips.values())
            position = min(minimum, len(waited)) - 1
            return max(send_wave, waited[max(position, 0)])
        ceiling = max(round_trips.values(), default=0.0)
        if n_unavailable:
            ceiling = max(ceiling, timeout_seconds)
        return max(send_wave, ceiling)

    def broadcast(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        minimum: Optional[int] = None,
        provider_indexes: Optional[List[int]] = None,
        quorum: str = "all",
        failover: bool = False,
    ) -> Dict[int, Dict]:
        """Like :meth:`call_all` with per-provider requests built on demand.

        ``failover=True`` (reads with a ``minimum``) re-dispatches missing
        sub-requests to spare live providers when a round comes up short,
        instead of raising :class:`QuorumError` — see
        :meth:`_call_with_failover`.
        """
        indexes = (
            provider_indexes
            if provider_indexes is not None
            else list(range(self.n_providers))
        )
        requests = {i: request_builder(i) for i in indexes}
        if not failover or minimum is None:
            return self.call_all(method, requests, minimum, quorum=quorum)
        return self._call_with_failover(
            method, request_builder, requests, minimum, quorum
        )

    def _call_with_failover(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        requests: Dict[int, Dict],
        minimum: int,
        quorum: str,
    ) -> Dict[int, Dict]:
        """Quorum failover: short rounds re-dispatch to spare providers.

        Spares are drawn from the health-preferred live order, excluding
        providers already addressed; each failover wave is a fully
        accounted round (bytes and clock) sized to the shortfall.  When
        the quorum is still short after every spare has been tried, the
        :class:`QuorumError` the caller would have seen without failover
        surfaces — callers never handle partial results.
        """
        responses, failures = self._call_round(method, requests, minimum, quorum)
        return self.failover_spares(
            method, request_builder, responses, set(requests), minimum, quorum,
            failures,
        )

    def failover_spares(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        responses: Dict[int, Dict],
        addressed: set,
        minimum: int,
        quorum: str,
        failures: Dict[int, str],
    ) -> Dict[int, Dict]:
        """Continue a short round by re-dispatching to spare providers.

        Shared by :meth:`_call_with_failover` and the service layer's
        :class:`~repro.service.scheduler.BatchingCluster`, which resumes
        from the partial responses a batched round's :class:`QuorumError`
        carries.
        """
        responses = dict(responses)
        addressed = set(addressed)
        all_failures = dict(failures)
        while len(responses) < minimum:
            needed = minimum - len(responses)
            # knowledge-based like read_quorum: every not-yet-addressed
            # provider is a candidate spare (health-ordered); a spare that
            # turns out to be down fails its RPC and the next wave moves on
            spares = [
                index
                for index in self._preferred(list(range(self.n_providers)))
                if index not in addressed
            ]
            if not spares:
                error = QuorumError(
                    f"{method}: only {len(responses)}/{len(addressed)} "
                    f"providers responded (need {minimum}) and no spare "
                    f"providers remain; failures: {all_failures}"
                )
                error.partial_responses = responses
                error.failures = all_failures
                raise error
            wave = spares[:needed]
            addressed.update(wave)
            for index in wave:
                telemetry.count(
                    "fanout.failovers", provider=self.providers[index].name
                )
            extra, failed = self._call_round(
                method,
                {i: request_builder(i) for i in wave},
                min(needed, len(wave)),
                quorum,
            )
            responses.update(extra)
            all_failures.update(failed)
        return responses

    # -- quorum helpers ------------------------------------------------------------------

    def _preferred(self, candidates: Sequence[int]) -> List[int]:
        """Health-preferred order, refined by breaker admission.

        Within the health tracker's ordering (healthy first, quarantined
        last), providers whose breaker would admit an RPC right now sort
        before providers whose breaker is open — an open breaker means
        the next dispatch fails fast, so it should be the last resort,
        but it stays selectable (half-open probes and robust decoding
        both want that).  Uses the non-consuming :meth:`admits` view so
        ordering never burns half-open probe budget.
        """
        ordered = self.health.preferred_order(list(candidates))
        if self.breakers is None:
            return ordered
        admitting = [i for i in ordered if self.breakers.admits(i)]
        refusing = [i for i in ordered if not self.breakers.admits(i)]
        return admitting + refusing

    def read_quorum(
        self, extra: int = 0, exclude: Sequence[int] = ()
    ) -> List[int]:
        """The first k (+``extra``) preferred providers, sorted.

        Selection is **knowledge-based**: it consults only what the
        client has learned (the health tracker), never the providers'
        actual fault state — a client cannot know a provider crashed
        until an RPC to it times out.  Quarantined providers sort after
        healthy ones, so a provider that has repeatedly failed rotates
        out of the default quorum as long as k healthy ones remain — and
        back in as a last resort when they don't (any k providers
        suffice for correctness, Sec. III).  An undiscovered crash is
        found at dispatch time and handled by retry/failover, not here.
        ``extra`` requests redundant shares (the verified-read path);
        ``exclude`` drops specific providers (e.g. the repair target).
        Deterministic selection keeps experiments reproducible.
        """
        excluded = set(exclude)
        candidates = [
            i for i in range(self.n_providers) if i not in excluded
        ]
        if len(candidates) < self.threshold:
            raise QuorumError(
                f"only {len(candidates)} providers addressable after "
                f"exclusions, need k={self.threshold}"
            )
        ordered = self._preferred(candidates)
        want = min(len(ordered), self.threshold + max(0, extra))
        return sorted(ordered[:want])

    def write_targets(self) -> List[int]:
        """All live providers (writes are best-effort to everyone)."""
        return self.live_provider_indexes()

    # -- accounting -----------------------------------------------------------------------

    def total_provider_cost(self) -> CostRecorder:
        """Merged computation counters across providers."""
        merged = CostRecorder("providers")
        for provider in self.providers:
            merged.merge(provider.cost)
        return merged

    def reset_accounting(self) -> None:
        self.network.reset()
        for provider in self.providers:
            provider.cost.reset()
            provider.requests_served = 0
