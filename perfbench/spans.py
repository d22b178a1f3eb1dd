"""Spans around the entry points each idealtop layer exposes to the next.

The traced run runs the ``search`` command in this process
(``idealtop.cli.main``) with the layers' functions temporarily replaced by
wrappers that record a span (name, start, end, parent) and a few counts. The program itself is not
changed: :func:`instrumented` swaps module attributes and restores them.
Spans stay in memory until :meth:`Tracer.dump`.

Layer boundaries, named ``layer.step``:

- ``search.run``        ``search.run_search`` (its self time is the merge loop)
- ``search.stream``     ``search._space_stream`` (builds the space stream)
- ``search.enumerate``  ``search._topology_members`` and each step of the
                        lazy ``search._subbase_topology_members``
- ``space.parse``       ``search.space_from_document`` (document mode)
- ``space.build``       ``Space.__post_init__`` (validation, int/cl tables)
- ``dsl.scan``          ``dsl.scan_law``, one per scanned space
- ``operators.table``   ``operators.unary_table``
- ``operators.kopen``   ``operators.kopen_family``
- ``operators.kclosure`` ``operators.kclosure_table``
- ``search.revalidate`` ``search._revalidate``
- ``search.report``     ``search.report_json``

An entry point a later version of the program no longer has is skipped,
and the metrics it fed read 0.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.topologies_seen: set = set()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_times(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Per span name: total self time, and the list of full durations.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is serial.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_total: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_total[name] += end - start - child_time[idx]
            durations[name].append(end - start)
        return self_total, durations

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _cache_size(space) -> int:
    return len(getattr(space, "_cache", ()))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    from idealtop import dsl, search
    from idealtop import operators as ops
    from idealtop import space as space_mod

    saved = []

    def patch(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def simple(name):
        return lambda fn: lambda *a, **k: tracer.call(name, fn, *a, **k)

    def table_counter(name, built_key, hit_key):
        # A call that added nothing to the space's cache was a cache hit.
        def make(fn):
            def wrapped(space, *a, **k):
                before = _cache_size(space)
                out = tracer.call(name, fn, space, *a, **k)
                tracer.counts[built_key if _cache_size(space) != before else hit_key] += 1
                return out
            return wrapped
        return make

    def scan(fn):
        def wrapped(space, law, *a, **k):
            out = tracer.call("dsl.scan", fn, space, law, *a, **k)
            tracer.counts["scans"] += 1
            tracer.counts["assignments"] += out[2]
            tracer.counts["full_scan"] += space.n_subsets ** len(law.free_vars)
            key = (space.ground.labels, space.topology.family.members)
            if key in tracer.topologies_seen:
                tracer.counts["topology_repeats"] += 1
            tracer.topologies_seen.add(key)
            return out
        return wrapped

    def enumerate_all(fn):
        def wrapped(*a, **k):
            out = tracer.call("search.enumerate", fn, *a, **k)
            tracer.counts["topologies"] += len(out)
            return out
        return wrapped

    def enumerate_lazy(fn):
        def wrapped(*a, **k):
            it = fn(*a, **k)
            while True:
                idx = tracer.begin("search.enumerate")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                tracer.counts["topologies"] += 1
                yield item
        return wrapped

    def build(fn):
        def wrapped(self):
            tracer.call("space.build", fn, self)
            tracer.counts["spaces_built"] += 1
        return wrapped

    def revalidate(fn):
        def wrapped(*a, **k):
            tracer.counts["witnesses"] += 1
            return tracer.call("search.revalidate", fn, *a, **k)
        return wrapped

    def report(fn):
        def wrapped(*a, **k):
            out = tracer.call("search.report", fn, *a, **k)
            tracer.counts["report_bytes"] += len(out.encode("utf-8"))
            return out
        return wrapped

    patch(search, "run_search", simple("search.run"))
    patch(search, "_space_stream", simple("search.stream"))
    patch(search, "_topology_members", enumerate_all)
    patch(search, "_subbase_topology_members", enumerate_lazy)
    patch(search, "space_from_document", simple("space.parse"))
    patch(space_mod.Space, "__post_init__", build)
    patch(dsl, "scan_law", scan)
    patch(ops, "unary_table", table_counter("operators.table", "tables_built", "table_hits"))
    patch(ops, "kopen_family", simple("operators.kopen"))
    patch(ops, "kclosure_table",
          table_counter("operators.kclosure", "kclosure_built", "kclosure_hits"))
    patch(search, "_revalidate", revalidate)
    patch(search, "report_json", report)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, spaces_scanned: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by benchmark metric name."""
    self_s, durations = tracer.self_times()
    c = tracer.counts
    scans = c["scans"]
    scan_s = self_s.get("dsl.scan", 0.0)
    # per-space scan latency, operator tables included
    scan_ms = [d * 1e3 for d in durations.get("dsl.scan", ())]
    tables = c["tables_built"] + c["table_hits"]

    def quantile(values, q):
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10, method="inclusive")[q - 1]

    return {
        "dsl.scan_s": scan_s,
        "dsl.scans": scans,
        "dsl.assignments": c["assignments"],
        "dsl.assignments_per_s": c["assignments"] / scan_s if scan_s else 0.0,
        "dsl.scan_p50_ms": quantile(scan_ms, 5),
        "dsl.scan_p90_ms": quantile(scan_ms, 9),
        "dsl.early_exit_share": c["assignments"] / c["full_scan"] if c["full_scan"] else 0.0,
        "operators.table_s": self_s.get("operators.table", 0.0),
        "operators.tables_built": c["tables_built"],
        "operators.table_hits": c["table_hits"],
        "operators.table_hit_ratio": c["table_hits"] / tables if tables else 0.0,
        "operators.kopen_s": self_s.get("operators.kopen", 0.0),
        "operators.kclosure_s": self_s.get("operators.kclosure", 0.0),
        "operators.kclosure_built": c["kclosure_built"],
        "operators.topology_reuse_share": c["topology_repeats"] / scans if scans else 0.0,
        "space.built": c["spaces_built"],
        "space.build_s": self_s.get("space.build", 0.0),
        "space.parse_s": self_s.get("space.parse", 0.0),
        # enumeration proper plus the rest of building the space stream
        "search.enumerate_s": self_s.get("search.enumerate", 0.0)
        + self_s.get("search.stream", 0.0),
        "search.topologies": c["topologies"],
        "search.loop_s": self_s.get("search.run", 0.0),
        "search.spaces_scanned": spaces_scanned,
        "search.scan_useful_ratio": spaces_scanned / scans if scans else 0.0,
        "search.revalidate_s": self_s.get("search.revalidate", 0.0),
        "search.witnesses": c["witnesses"],
        "search.report_s": self_s.get("search.report", 0.0),
        "search.report_bytes": c["report_bytes"],
    }
