"""Spans around the program's public entry points, recorded from outside.

``Recorder.install()`` replaces each entry point in :data:`TARGETS` with a
wrapper that records ``(name, start, end)`` with ``time.perf_counter`` and
calls the original; ``uninstall()`` puts the originals back.  Spans stay
in memory until the run ends.  A span's parent is the innermost span whose
interval holds it, which is exact here because every workload runs one
operation at a time (a served request's spans on pool threads fall inside
its ``serve.execute`` span).  Self time is a span's duration minus its
direct children's.

The span name's first part names the layer: ``index.*`` is
``repro.index``, ``prsq.*`` is ``repro.prsq``, and so on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name).  Functions are patched where the
#: caller looks them up, so a ``from x import f`` alias is patched in the
#: importing module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.session", "Session.query", "engine.query"),
    ("repro.api.results", "QueryResult.from_outcome", "api.from_outcome"),
    ("repro.api.results", "QueryResult.to_dict", "api.to_dict"),
    ("repro.engine.session", "_prsq_probabilities", "prsq.probabilities"),
    ("repro.prsq.query", "probability_at_indices", "prsq.eq2"),
    ("repro.prsq.oracle", "MembershipOracle.__init__", "prsq.oracle_build"),
    ("repro.index.packed", "PackedRTree.range_search_any", "index.range_search_any"),
    ("repro.index.packed", "PackedRTree.range_search_any_grouped",
     "index.range_search_any_grouped"),
    ("repro.engine.plan", "compute_causality", "core.compute_causality"),
    ("repro.core.cp", "find_candidate_causes", "core.find_candidate_causes"),
    ("repro.engine.session", "Session.apply", "uncertain.apply"),
    ("repro.engine.session", "Session.read_snapshot", "uncertain.read_snapshot"),
    ("repro.serve.service", "DatasetService.execute", "serve.execute"),
    ("repro.serve.writer", "SingleWriter.submit", "serve.submit"),
)

LAYERS = ("index", "prsq", "core", "engine", "api", "uncertain", "serve")

Span = Tuple[str, float, float]


class Recorder:
    """Installs the wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, original, name: str):
        spans = self.spans
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed_async(*args, **kwargs):
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    spans.append((name, start, clock()))
            return timed_async

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))
        return timed

    def install(self) -> "Recorder":
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans: Iterable[Span], roots: Optional[Iterable[str]] = None) -> Dict[str, dict]:
    """Per span name: ``count``, ``busy_s``, ``self_s`` and ``outer_s``
    (busy time of the spans not nested in a span of the same layer, so a
    layer's busy time counts no interval twice).

    With *roots*, only trees whose outermost span has one of those names
    are counted (the server's start-up publish is not a request).
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    keep_roots = None if roots is None else set(roots)
    out: Dict[str, dict] = {}
    stack: List[list] = []   # [name, start, end, child_s, counted, outer]

    def close(entry: list) -> None:
        name, start, end, child_s, counted, outer = entry
        if not counted:
            return
        stats = out.setdefault(
            name, {"count": 0, "busy_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
        )
        stats["count"] += 1
        stats["busy_s"] += end - start
        stats["self_s"] += end - start - child_s
        if outer:
            stats["outer_s"] += end - start

    for name, start, end in ordered:
        while stack and stack[-1][2] <= start:
            close(stack.pop())
        if stack:
            parent = stack[-1]
            parent[3] += end - start
            counted = parent[4]
            outer = _layer(parent[0]) != _layer(name)
        else:
            counted = keep_roots is None or name in keep_roots
            outer = True
        stack.append([name, start, end, 0.0, counted, outer])
    while stack:
        close(stack.pop())
    return out


def busy_ms(stats: Dict[str, dict], *names: str) -> float:
    return 1e3 * sum(stats.get(n, {}).get("busy_s", 0.0) for n in names)


def count(stats: Dict[str, dict], *names: str) -> int:
    return sum(stats.get(n, {}).get("count", 0) for n in names)


def layer_totals(stats: Dict[str, dict]) -> Dict[str, dict]:
    """Per layer (the span name's first part): span ``count``, ``busy_s``
    (outermost spans of the layer) and ``self_s``."""
    out = {layer: {"count": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for name, figures in sorted(stats.items()):
        layer = out[_layer(name)]
        layer["count"] += figures["count"]
        layer["busy_s"] += figures["outer_s"]
        layer["self_s"] += figures["self_s"]
    return out
