"""In-memory span recorder that wraps communifind's public functions from outside.

Nothing here edits the package source.  :meth:`Tracer.install` replaces each
listed function, in every ``communifind`` module namespace that binds it,
with a wrapper that records a span (name, start, end, parent, op id and a
few attributes taken from arguments and results); :meth:`Tracer.uninstall`
puts the originals back.  ``SeededRng.next_u64`` is only counted, because a
span per draw would cost more than the draw.  The recorder is meant for a
single thread: spans nest through one stack.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (module, function, span name): the layer boundaries the benchmark times.
WRAPPED = (
    ("identify", "draw_embedding", "identify.draw_embedding"),
    ("identify", "apply_embedding", "identify.apply_embedding"),
    ("identify", "top_k", "identify.top_k"),
    ("graphs", "generate", "graphs.generate"),
    ("communicability", "total_communicability", "communicability.total_communicability"),
    ("communicability", "accumulate", "communicability.accumulate"),
    ("expm", "expm_action", "expm.expm_action"),
    ("modularity", "baseline_candidates", "modularity.baseline_candidates"),
    ("modularity", "modularity_matrix", "modularity.modularity_matrix"),
    ("modularity", "temporal_filter", "modularity.temporal_filter"),
    ("modularity", "eigen_l1_scores", "modularity.eigen_l1_scores"),
    ("modularity", "two_means_split", "modularity.two_means_split"),
)
U64_COUNTER = "rng.next_u64"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _annotate(name: str, span: Span, bound: inspect.BoundArguments, result: Any) -> None:
    """Attributes the per-layer metrics need, read from a call's arguments and result."""
    if name == "graphs.generate":
        span.attrs["model"] = bound.arguments["spec"].model
        span.attrs["edges"] = int(result.edge_count)
    elif name == "expm.expm_action":
        span.attrs["iterations"] = int(result.iterations)
        span.attrs["est_error"] = float(result.est_error)
        span.attrs["tol"] = float(bound.arguments["params"].tol)
        span.attrs["edges"] = int(bound.arguments["g"].edge_count)
    elif name == "modularity.baseline_candidates":
        hosts = bound.arguments["hosts"]
        span.attrs["window"] = len(hosts)
        span.attrs["n"] = int(hosts[0].n)


class Tracer:
    """Spans and counts of one traced pass, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.op, time.perf_counter(), attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _annotate(name, sp, bound, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "communifind" or key.startswith("communifind.")]
        for mod_name, fn_name, span_name in WRAPPED:
            original = getattr(sys.modules[f"communifind.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        rng_cls = sys.modules["communifind.rng"].SeededRng
        draw = getattr(rng_cls, "next_u64", None)
        if draw is not None:  # counted only while the generator has this method
            counts = self.counts

            def next_u64(rng):
                counts[U64_COUNTER] += 1
                return draw(rng)

            self._saved.append((rng_cls, "next_u64", draw))
            setattr(rng_cls, "next_u64", next_u64)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered = 0.0
            cursor = sp.start
            for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sp.id] = sp.duration - covered
        return out

    def to_json(self) -> dict[str, Any]:
        self_time = self.self_times()
        return {
            "counts": dict(self.counts),
            "spans": [
                {
                    "id": sp.id,
                    "name": sp.name,
                    "parent": sp.parent,
                    "op": sp.op,
                    "start": sp.start,
                    "end": sp.end,
                    "self": self_time[sp.id],
                    **({"attrs": sp.attrs} if sp.attrs else {}),
                }
                for sp in self.spans
            ],
        }
