"""In-memory span recorder and the layer shims of the traced run.

Spans are recorded from outside the program: :func:`install` replaces the
public entry point of each layer with a wrapper that opens a span around
the original call, and :func:`uninstall` puts the originals back.  Nothing
under ``src/`` is edited.

A span's parent is the innermost span open in the same context.  The open
spans live in a :mod:`contextvars` variable, so asyncio tasks and the serve
tier's executor threads (which run under a copy of the requesting task's
context) nest correctly.  Self time is a span's duration minus the
durations of its children.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

_STACK: contextvars.ContextVar[Tuple[int, ...]] = contextvars.ContextVar(
    "perfbench_stack", default=())
_SCOPE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_scope", default="")
_RECORDING: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_recording", default=True)


class Span:
    __slots__ = ("layer", "scope", "parent", "t0", "t1", "thread", "attrs")

    def __init__(self, layer: str, scope: str, parent: int) -> None:
        self.layer = layer
        self.scope = scope
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.thread = threading.get_ident()
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Collects spans while ``on``; :meth:`self_times` does the accounting."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[Span] = []

    @property
    def recording(self) -> bool:
        return self.on and _RECORDING.get()

    @contextmanager
    def span(self, layer: str, **attrs: Any):
        if not (self.on and _RECORDING.get()):
            yield None
            return
        stack = _STACK.get()
        rec = Span(layer, _SCOPE.get(), stack[-1] if stack else -1)
        rec.attrs.update(attrs)
        self.spans.append(rec)           # list.append is atomic under the GIL
        token = _STACK.set(stack + (len(self.spans) - 1,))
        rec.t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.t1 = time.perf_counter()
            _STACK.reset(token)

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child)]

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (at the end of a run)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self.self_times()
        rows = [{"layer": sp.layer, "scope": sp.scope, "parent": sp.parent,
                 "t0": sp.t0, "t1": sp.t1, "self": s, "thread": sp.thread,
                 **{k: v for k, v in sp.attrs.items()
                    if isinstance(v, (int, float, str))}}
                for sp, s in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


RECORDER = Recorder()
span = RECORDER.span


@contextmanager
def scope(name: str):
    """Tag every span opened inside with ``name`` (a shape, phase or call)."""
    token = _SCOPE.set(name)
    try:
        yield
    finally:
        _SCOPE.reset(token)


@contextmanager
def recording(flag: bool):
    """Record spans inside only if ``flag`` (the shims stay installed), so
    a traced run can time the same work with and without tracing."""
    token = _RECORDING.set(flag)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _wrap(fn: Callable, layer: str,
          annotate: Optional[Callable[..., Dict[str, Any]]] = None
          ) -> Callable:
    def wrapper(*args, **kwargs):
        with span(layer) as sp:
            if sp is not None and annotate is not None:
                sp.attrs.update(annotate(*args, **kwargs))
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


_saved: List[Tuple[Any, str, Any]] = []


def install(batch_members: Callable[[Any], Dict[str, Any]]) -> None:
    """Shim the public entry point of every layer.

    ``batch_members(dbs)`` annotates each ``evaluate_batch`` span, so the
    serve analysis can tell which requests a batch carried.
    """
    import repro.api
    import repro.bounds
    import repro.boolcircuit.lower as lower_mod
    import repro.core
    import repro.engine
    import repro.engine.cache
    from repro.boolcircuit.builder import ArrayBuilder

    # Layers: ``bounds`` (bound and proof as CompiledQuery calls them),
    # ``core``, ``lower``, ``plan``, ``engine``; ``api.decode`` is
    # run_lowered outside its children (decode and glue).
    targets = [
        (repro.bounds, "log_dapb", "bounds"),
        (repro.api, "synthesize_proof", "bounds"),
        (repro.core, "compile_fcq", "core"),
        (lower_mod, "lower", "lower"),
        (repro.engine.cache, "compile_plan", "plan"),
        (repro.engine, "evaluate", "engine"),
        (repro.engine, "run_lowered", "api.decode"),
    ]
    for owner, name, layer in targets:
        original = getattr(owner, name)
        _saved.append((owner, name, original))
        setattr(owner, name, _wrap(original, layer))

    enc = ArrayBuilder.__dict__["encode_relation"]
    _saved.append((ArrayBuilder, "encode_relation", enc))
    ArrayBuilder.encode_relation = staticmethod(
        _wrap(enc.__func__, "api.encode"))

    ev = repro.api.CompiledQuery.evaluate_batch
    _saved.append((repro.api.CompiledQuery, "evaluate_batch", ev))
    repro.api.CompiledQuery.evaluate_batch = _wrap(
        ev, "api", lambda self, dbs, *a, **k: batch_members(dbs))
    RECORDER.on = True


def uninstall() -> None:
    RECORDER.on = False
    while _saved:
        owner, name, original = _saved.pop()
        setattr(owner, name, original)
