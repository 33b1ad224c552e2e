"""Timing wrappers installed on qcb from outside the package.

The package imports names with ``from .x import f``, which binds a copy of
``f`` in the importing module.  A wrapper therefore has to replace the name
in every namespace a caller looks it up in; ``install`` does that with one
wrapper object per function, so a call is counted once whichever module
made it.

Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent, request)`` for every
  call and keep it in memory until the run writes it out;
* leaf wrappers, for functions called 10^5 times or more per run, keep only
  a call count and a summed time.

Both push a frame on one stack, so a span's self time is its duration
minus the time covered by its direct children, spans and leaves alike.
"""

from __future__ import annotations

import time

# span name -> layer is the part before the first dot
LAYERS = ("cli", "canonical", "modvec", "wedge", "laurent", "crystal", "shapes")

_clock = time.perf_counter


class Tracer:
    """Spans, self times and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.request = 0
        # open frames: [name, start, time covered by children, span index]
        self._stack: list[list] = []

    # -- bookkeeping ----------------------------------------------------

    def _close(self, frame: list, end: float) -> None:
        name, start, covered, _idx = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def high_water(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, on_return=None, rename=None):
        """Wrap fn so each call records a span; rename(parent) may refine the name."""
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_name = rename(self.parent_name()) if rename else name
            parent = stack[-1][3] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [span_name, _clock(), 0.0, idx]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (span_name, frame[1], end, parent, self.request)
                self._close(frame, end)
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        """Wrap fn with a call count and a summed time only."""
        stack = self._stack
        calls = self.calls
        total = self.total
        self_time = self.self_time

        def wrapper(*args, **kwargs):
            frame = [name, _clock(), 0.0, -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + dur
                self_time[name] = self_time.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "layer_self": self.layer_self(),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def _patch(modules, attr: str, wrapper) -> None:
    for mod in modules:
        if not hasattr(mod, attr):
            raise AttributeError(f"{mod.__name__} has no {attr}; the trace map is stale")
        setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Replace qcb's layer entry points, in every calling namespace, by wrappers."""
    import qcb.canonical as canonical
    import qcb.cli as cli
    import qcb.crystal as crystal
    import qcb.modvec as modvec
    import qcb.shapes as shapes
    import qcb.wedge as wedge
    from qcb.laurent import LaurentPoly

    def after_a_path(path) -> None:
        tracer.count("a_path_steps", len(path.steps))
        tracer.count("a_path_direct", int(path.direct))

    def after_f_divided(vec) -> None:
        tracer.high_water("max_support", len(vec.terms))

    def after_matrix(m) -> None:
        tracer.count("rows", len(m.rows))
        tracer.count("cols", len(m.cols))
        tracer.count("entries", len(m.entries))
        tracer.count("gamma", len(m.gamma))

    def tabloids_name(parent: str | None) -> str:
        if parent == "canonical.a_path":
            return "shapes.enumerate_tabloids_probe"
        return "shapes.enumerate_tabloids_rows"

    s, leaf = tracer.span, tracer.leaf
    _patch([cli], "main", s("cli.main", cli.main))
    _patch([cli, canonical], "canonical_matrix",
           s("canonical.canonical_matrix", canonical.canonical_matrix, after_matrix))
    _patch([canonical, cli], "a_path", s("canonical.a_path", canonical.a_path, after_a_path))
    _patch([canonical, cli], "a_vector", s("canonical.a_vector", canonical.a_vector))
    _patch([canonical], "apply_monomial", s("modvec.apply_monomial", canonical.apply_monomial))
    _patch([canonical], "is_orthogonal_tableau",
           s("shapes.is_orthogonal_tableau", canonical.is_orthogonal_tableau))
    _patch([canonical], "enumerate_tabloids",
           s("shapes.enumerate_tabloids", canonical.enumerate_tabloids, rename=tabloids_name))
    _patch([canonical], "enumerate_tableaux", s("shapes.enumerate_tableaux", canonical.enumerate_tableaux))
    _patch([canonical, shapes], "raise_to_highest", s("crystal.raise_to_highest", crystal.raise_to_highest))
    _patch([shapes, cli], "component_bfs", s("crystal.component_bfs", crystal.component_bfs))
    _patch([modvec], "module_f_divided",
           s("modvec.module_f_divided", modvec.module_f_divided, after_f_divided))
    _patch([modvec], "wedge_f_divided", leaf("wedge.wedge_f_divided", modvec.wedge_f_divided))
    _patch([crystal, canonical, wedge, cli], "word_apply", leaf("crystal.word_apply", crystal.word_apply))
    _patch([wedge], "divide_exact", leaf("laurent.divide_exact", wedge.divide_exact))
    mul = leaf("laurent.mul", LaurentPoly.__mul__)
    LaurentPoly.__mul__ = mul
    LaurentPoly.__rmul__ = mul


def cache_counters() -> dict[str, int]:
    """Hits and misses of the package's memo tables, read without touching them."""
    import qcb.shapes as shapes
    import qcb.wedge as wedge

    out = {}
    for name, fn in (
        ("straighten", wedge._straighten_cached),
        ("divided", wedge._divided_on_column),
        ("is_admissible", shapes.is_admissible),
    ):
        info = fn.cache_info()
        out[f"{name}_hits"] = info.hits
        out[f"{name}_misses"] = info.misses
    return out
