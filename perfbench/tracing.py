"""Span tracing installed from outside the program.

:func:`install` wraps public functions of the program's modules with
timing wrappers; no program file is edited.  Each wrapped call records
one span — name, start, end, parent span — in memory, per thread.  At
exit :meth:`Tracer.summary` folds the spans into per-layer self time
(span time minus the time of its child spans), total time and calls.

Functions called millions of times (symbol interning) are only counted:
their time stays in the span of their caller.

Layers that run inside the process backend's worker processes record
spans there that are never written out; their time is attributed to
the ``dispatch`` span that waits for them, and their counts come from
the counters the program exports (crawl metrics, ledger counters).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Name of the span that brackets a child's timed phase; its self time
#: is the wall time no layer span covers (``trace.unattributed_s``).
REGION = "unit"


class Tracer:
    """In-memory span recorder (one span list and stack per thread)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[tuple] = []
        self.counts: Counter = Counter()
        #: Per-call detail for layers that need pairing (serve handle).
        self.details: List[tuple] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (spans, stack)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> int:
        spans, stack = self._state()
        span = spans[index]
        span[2] = time.perf_counter_ns()
        stack.pop()
        return span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(
        self,
        function: Callable,
        name,
        on_result: Optional[Callable] = None,
        detail: Optional[Callable] = None,
    ) -> Callable:
        """A spanning wrapper around ``function``.

        ``name`` is a span name or a callable of the call's arguments
        returning one; ``on_result(tracer, result, args)`` derives counts
        from the return value; ``detail(args)`` stores per-call detail.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = tracer.begin(label)
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = tracer.end(index)
                if detail is not None:
                    tracer.details.append(
                        (threading.current_thread().name, detail(*args, **kwargs), elapsed)
                    )
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return traced

    def wrap_count(self, function: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per-layer ``self_ns``/``total_ns``/``calls`` over finished spans."""
        layers: Dict[str, Dict[str, int]] = {}
        for spans, _stack in self._threads:
            child_ns = [0] * len(spans)
            for span in spans:
                if span[2] and span[3] >= 0:
                    child_ns[span[3]] += span[2] - span[1]
            for index, (name, start, end, _parent) in enumerate(spans):
                if not end:
                    continue  # still open at exit (the serve loop)
                entry = layers.setdefault(
                    name, {"self_ns": 0, "total_ns": 0, "calls": 0}
                )
                entry["total_ns"] += end - start
                entry["self_ns"] += end - start - child_ns[index]
                entry["calls"] += 1
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "details": self.details,
        }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _patch_method(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _patch_function(module, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a module function everywhere it was imported by name."""
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(attr) is original
        ):
            setattr(loaded, attr, wrapped)


def _count_result(key: str, measure: Callable) -> Callable:
    def on_result(tracer: Tracer, result, args) -> None:
        tracer.counts[key] += measure(result)

    return on_result


def _ledger_scan(tracer: Tracer, scan, args) -> None:
    tracer.counts["ledger.shards_replayed"] += len(scan.payloads)
    tracer.counts["ledger.entries_quarantined"] += scan.quarantined


def _dispatch_result(tracer: Tracer, outcome, args) -> None:
    tracer.counts["dispatch.shards"] += len(outcome.payloads)
    tracer.counts["dispatch.retries"] += outcome.retries


def _crawl_report(tracer: Tracer, report, args) -> None:
    counts = tracer.counts
    metrics = report.metrics
    counts["cache.hits"] += report.cache_hits
    counts["cache.misses"] += report.cache_misses
    counts["crawl.cells_ingested"] += report.pages_collected
    counts["ledger.journal_bytes"] += report.bytes_journaled
    counts["profile_store.hits"] += metrics.counter("profile_store.hits")
    counts["profile_store.misses"] += metrics.counter("profile_store.misses")


def _handle_target(self, method, path, query="", headers=None) -> str:
    return f"{path}?{query}" if query else path


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the program (imports it first)."""
    from repro.analysis import api as analysis_api
    from repro.core.study import Study
    from repro.crawler import crawl, persistence
    from repro.crawler.fetch import Fetcher
    from repro.crawler.filtering import AccessibilityFilter
    from repro.crawler.store import ObservationStore
    from repro.crawler.symbols import PairDomain, SymbolDomain
    from repro.fingerprint.engine import FingerprintEngine
    from repro.netsim.network import VirtualNetwork
    from repro.orchestrator.queue import JobQueue
    from repro.orchestrator.runner import JobRunner
    from repro.runtime import dispatch
    from repro.runtime.ledger import RunLedger
    from repro.serve.app import ServeApp
    from repro.vulndb.matcher import VersionMatcher
    from repro.webgen.ecosystem import WebEcosystem

    def span(name, **extra):
        return lambda function: tracer.wrap(function, name, **extra)

    def count(name):
        return lambda function: tracer.wrap_count(function, name)

    methods = [
        (WebEcosystem, "__init__", span("webgen.build")),
        (WebEcosystem, "manifest", span("webgen.manifest")),
        (WebEcosystem, "landing_page", span("webgen.render")),
        (VirtualNetwork, "send", span("netsim.send")),
        (
            Fetcher,
            "fetch_domain",
            span(
                "fetch",
                on_result=_count_result("fetch.failed", lambda r: not r.ok),
            ),
        ),
        (AccessibilityFilter, "run", span("filter")),
        (FingerprintEngine, "fingerprint", span("fingerprint")),
        (ObservationStore, "ingest", span("store.ingest")),
        (ObservationStore, "merge", span("store.merge")),
        (VersionMatcher, "match", span("vulndb.match")),
        (VersionMatcher, "match_unversioned", span("vulndb.match")),
        (SymbolDomain, "intern", count("symbols.intern.calls")),
        (PairDomain, "intern", count("symbols.intern.calls")),
        (PairDomain, "intern_ids", count("symbols.intern.calls")),
        (Study, "run", span("crawl.run", on_result=_crawl_report)),
        (Study, "results", span("analysis")),
        (RunLedger, "open", span("ledger.open", on_result=_ledger_scan)),
        (JobQueue, "open", span("queue.open")),
        (
            JobRunner,
            "execute",
            span(lambda self, spec: f"job.{spec.kind}"),
        ),
        (ServeApp, "from_files", span("serve.app_build")),
        (ServeApp, "handle", span("serve.handle", detail=_handle_target)),
    ]
    for name in ("lease", "mark_running", "mark_done", "mark_failed", "requeue"):
        methods.append((JobQueue, name, span("queue.transition")))
    for owner, attr, make in methods:
        _patch_method(owner, attr, make)

    functions = [
        (crawl, "profile_from_manifest", span("profile")),
        (
            persistence,
            "store_to_bytes",
            span("persist.encode", on_result=_count_result("persist.bytes", len)),
        ),
        (persistence, "store_from_bytes", span("persist.decode")),
        (analysis_api, "run_analyses", span("analysis")),
        (dispatch, "dispatch_shards", span("dispatch", on_result=_dispatch_result)),
    ]
    for module, attr, make in functions:
        _patch_function(module, attr, make)
