"""Per-layer tracing from outside the program.

:class:`SpanRecorder` replaces the public functions each layer exposes
with timing wrappers for the length of a traced run, then restores them.
A function imported by name into another module is wrapped at every
import site as well, since patching only its home module would miss the
copies.  Nothing under ``src/`` is edited.

Each span records ``(id, name, start, end, parent, request, thread)``.
Spans nest through a per-thread stack.  ``ShareProvider.handle`` runs on
the cluster's fan-out pool threads, where that stack is empty; such a
span takes as parent the most recently opened fan-out span, which is
exact with one client and may swap two concurrent fan-outs' children
with two (both are the same layer, so layer totals do not change).

Attribution (:func:`attribute`) splits every root span's wall time:
a span's self time is its duration minus the union of its children's
intervals.  Inside a fan-out, time the calling thread spends in its own
children (wire sizing) counts first; the rest of the interval covered by
provider handlers on pool threads goes to those handlers, once, however
many providers ran in parallel.  Layer shares and the unattributed share
(the roots' own self time) therefore sum to 100% of client busy time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The root span the benchmark opens around every measured operation.
ROOT = "bench.op"
FANOUT = "providers.fanout"
HANDLE = "providers.handle"

#: layer -> the (module, attribute) sites its public functions live at.
#: ``Class.method`` attributes are patched on the class.
LAYER_SITES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sqlengine.parse": (
        ("repro.sqlengine.sqlparser", "parse_sql"),
        ("repro.client.datasource", "parse_sql"),
        ("repro.service.plancache", "parse_sql"),
        ("repro.txn.manager", "parse_sql"),
    ),
    "client.rewrite": (
        ("repro.client.rewriter", "rewrite_predicate"),
        ("repro.client.datasource", "rewrite_predicate"),
        ("repro.service.plancache", "rewrite_predicate"),
    ),
    "client.reconstruct": (
        ("repro.client.reconstruct", "reconstruct_rows"),
        ("repro.client.reconstruct", "reconstruct_single_rows"),
        ("repro.client.datasource", "reconstruct_rows"),
        ("repro.client.datasource", "reconstruct_single_rows"),
    ),
    "core.share": (("repro.core.scheme", "TableSharing.share_row"),),
    "core.op_split": (
        ("repro.core.order_preserving", "OrderPreservingScheme.split"),
        ("repro.core.order_preserving", "OrderPreservingScheme.split_batch"),
    ),
    "core.op_reconstruct": (
        ("repro.core.kernels", "reconstruct_integer"),
        ("repro.core.scheme", "reconstruct_integer"),
        ("repro.core.order_preserving", "reconstruct_integer"),
    ),
    "core.modular_reconstruct": (
        ("repro.core.kernels", "batch_reconstruct"),
        ("repro.core.kernels", "reconstruct_constant"),
        ("repro.core.scheme", "batch_reconstruct"),
        ("repro.core.shamir", "batch_reconstruct"),
        ("repro.core.shamir", "reconstruct_constant"),
    ),
    "sim.wire_sizing": (
        ("repro.sim.network", "SimulatedNetwork.send"),
        ("repro.sim.network", "SimulatedNetwork.send_unclocked"),
    ),
    HANDLE: (("repro.providers.provider", "ShareProvider.handle"),),
    FANOUT: (
        ("repro.providers.cluster", "ProviderCluster.broadcast"),
        ("repro.providers.cluster", "ProviderCluster.call_all"),
    ),
    "service.admission_wait": (
        ("repro.service.admission", "AdmissionController.acquire"),
    ),
    "txn.execute": (
        ("repro.txn.manager", "TransactionManager.execute"),
        ("repro.txn.manager", "TransactionManager.flush"),
    ),
}

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


def _count_result(counts: Dict[str, int], layer: str, result: object) -> None:
    """Work counters read off a wrapped call's return value."""
    if layer == "sim.wire_sizing":
        counts["sim.bytes"] += result[0] if isinstance(result, tuple) else result
        counts["sim.messages"] += 1
    elif layer == "core.share":
        counts["core.cells_shared"] += len(result[0]) if result else 0
    elif layer == "client.reconstruct":
        if isinstance(result, list):
            counts["client.rows_reconstructed"] += len(result)
        elif result is not None:
            counts["client.rows_reconstructed"] += 1


class SpanRecorder:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_fanouts: Dict[int, Optional[int]] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, request = stack[-1]
        elif name == ROOT:
            parent, request = None, sid
        else:
            with self._lock:
                parent = max(self._open_fanouts, default=None)
                request = self._open_fanouts.get(parent)
        if name == FANOUT:
            with self._lock:
                self._open_fanouts[sid] = request
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == FANOUT:
                with self._lock:
                    del self._open_fanouts[sid]
            self.spans.append(
                (sid, name, start, end, parent, request, threading.get_ident())
            )
            with self._lock:
                self.calls[name] += 1

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        recorder = self

        if layer == HANDLE:

            @functools.wraps(fn)
            def handle(provider, method, *args, **kwargs):
                with recorder.span(f"{HANDLE}.{method}"):
                    return fn(provider, method, *args, **kwargs)

            return handle

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(layer):
                result = fn(*args, **kwargs)
            if layer in ("sim.wire_sizing", "core.share", "client.reconstruct"):
                with recorder._lock:
                    _count_result(recorder.counts, layer, result)
            return result

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        for layer, sites in LAYER_SITES.items():
            for module_name, attribute in sites:
                owner = importlib.import_module(module_name)
                if "." in attribute:
                    class_name, attribute = attribute.split(".")
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                self._patched.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        """Dump every span as JSON (written once, when the run ends)."""
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "request", "thread"],
                    "spans": sorted(self.spans),
                },
                out,
            )


# ---------------------------------------------------------------- analysis --


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals; empty ones add 0."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):
            continue
        total += end - max(start, reach)
        reach = end
    return total


def attribute(spans: List[Span]) -> Tuple[Dict[str, float], float, int]:
    """Per-layer seconds, client busy seconds, and orphan span count.

    The root spans' own self time is returned under ``ROOT``: the wall
    time no wrapped layer covers.
    """
    ordered = sorted(spans)
    by_id = {span[0]: span for span in ordered}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in ordered:
        if span[4] is not None:
            children[span[4]].append(span)
    layers: Dict[str, float] = defaultdict(float)
    busy = 0.0
    orphans = 0
    counted = set()
    for sid, name, start, end, parent, _, thread in ordered:
        if parent is None:
            if name != ROOT:
                orphans += 1
                continue
            busy += end - start
        elif parent not in counted or by_id[parent][6] != thread:
            # pool-thread spans are attributed through their fan-out below
            continue
        counted.add(sid)
        same, pool = [], defaultdict(list)
        for child in children.get(sid, ()):
            interval = (max(child[2], start), min(child[3], end))
            if child[6] == thread:
                same.append(interval)
            else:
                pool[child[1]].append(interval)
        covered = union_length(same + [iv for ivs in pool.values() for iv in ivs])
        layers[name] += (end - start) - covered
        weights = {child: union_length(ivs) for child, ivs in pool.items()}
        total = sum(weights.values())
        if total > 0:
            pooled = covered - union_length(same)
            for child, weight in weights.items():
                layers[child] += pooled * weight / total
    return dict(layers), busy, orphans
