"""The paper's circuits, their seeded inputs, and the three benchmark stages.

Every workload runs the same three stages, sized differently:

* **compile** — cold compiles (query or builder call to a ready plan:
  lowered, planned, fused kernels built), each from a cleared
  ``engine.DEFAULT_PLAN_CACHE``;
* **serve** — requests through ``QueryServer.dispatch``, in a ``steady``
  and an ``overload`` phase;
* **batch** — offline ``evaluate_batch`` / ``run_lowered`` at batch 64
  and 1024.

Every answer is compared with ``ConjunctiveQuery.evaluate`` (the RAM
reference); a mismatch or an error counts as a failure.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import repro
from repro import engine
from repro.boolcircuit.builder import ArrayBuilder
from repro.core import triangle_circuit, yannakakis_c
from repro.boolcircuit import pk_join
from repro.cq import Database, Relation, parse_query
from repro.datagen import random_database, triangle_query, uniform_dc
from repro.datagen.generators import random_relation
from repro.serve import QueryServer
from repro.serve.schema import database_to_wire, relation_from_wire

from .spans import recording, scope, span

TRIANGLE = "R_AB(A,B), R_BC(B,C), R_AC(A,C)"
PATH3 = "R(A,B), S(B,C), T(C,D)"
PK = "R(A,B), S(B,C)"


@dataclass(frozen=True)
class Sizes:
    """Shape parameters; ``FULL`` is the benchmark, ``TOY`` the self-test."""

    tag: str
    tri_n: int          # tri6: PANDA-C triangle, per-atom cardinality
    tri_domain: int
    fig1_n: int         # fig1: Figure-1 triangle circuit
    fig1_domain: int
    fig3_m: int         # fig3: pk_join with M = N'
    yc_n: int           # yc: Yannakakis-C on the 3-path
    yc_domain: int
    yc_out: int         # yc: OUT bound
    steady_rps: float   # serve: steady Poisson rate
    overload_rps: float  # serve: overload Poisson rate
    batches: tuple = (64, 1024)


FULL = Sizes("full", 6, 5, 16, 8, 256, 4, 4, 16, 2.0, 16.0)
TOY = Sizes("toy", 2, 3, 4, 4, 8, 2, 4, 4, 20.0, 80.0)

SHAPES = ("tri6", "fig1", "fig3", "yc")


class Checker:
    """Counts attempted answers and failures (error or wrong answer)."""

    def __init__(self, inject_wrong: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.inject_wrong = inject_wrong   # self-test: drop one tuple once
        self.errors: List[str] = []

    def check(self, answer: Optional[Relation], reference: Relation,
              where: str) -> bool:
        self.attempted += 1
        if answer is not None and self.inject_wrong and len(answer):
            self.inject_wrong = False
            answer = Relation(answer.schema, sorted(answer.rows)[1:])
        if answer is not None and answer == reference:
            return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: wrong answer")
        return False

    def error(self, where: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {message}")


# ---------------------------------------------------------------------------
# seeded instances
# ---------------------------------------------------------------------------

def content_key(env) -> tuple:
    """Name-independent identity of an instance (serve batch attribution)."""
    rels = env.values() if hasattr(env, "values") else [r for _, r in env]
    return tuple(sorted(tuple(sorted(r.rows)) for r in rels))


def distinct_instances(make: Callable[[np.random.Generator], Database],
                       count: int, rng: np.random.Generator,
                       accept: Callable[[Database], bool] = lambda db: True
                       ) -> List[Database]:
    seen, out = set(), []
    while len(out) < count:
        db = make(rng)
        key = content_key(db)
        if key in seen or not accept(db):
            continue
        seen.add(key)
        out.append(db)
    return out


def tri_instances(sz: Sizes, count: int, rng) -> List[Database]:
    q = triangle_query()
    return distinct_instances(
        lambda r: random_database(q, sz.tri_n, sz.tri_domain, seed=r),
        count, rng)


def fig1_instance(sz: Sizes, rng) -> Database:
    return random_database(triangle_query(), sz.fig1_n, sz.fig1_domain,
                           seed=rng)


def fig3_instance(sz: Sizes, rng) -> Database:
    m = sz.fig3_m
    keys = m + m // 4
    r = random_relation(("A", "B"), m, max(4 * m, keys), seed=rng)
    r = Relation(("A", "B"), [(a, b % keys) for a, b in r.rows])
    while len(r) < m:       # folding B may merge rows; top up
        r = Relation(("A", "B"), list(r.rows) + [
            (int(rng.integers(4 * m)), int(rng.integers(keys)))])
    bs = rng.choice(keys, size=m, replace=False)
    s = Relation(("B", "C"), [(int(b), int(rng.integers(4 * m)))
                              for b in bs])
    return Database({"R": r, "S": s})


def yc_instances(sz: Sizes, count: int, rng) -> List[Database]:
    q = parse_query(PATH3)
    return distinct_instances(
        lambda r: random_database(q, sz.yc_n, sz.yc_domain, seed=r),
        count, rng,
        accept=lambda db: len(q.evaluate(db)) <= sz.yc_out)


# ---------------------------------------------------------------------------
# shapes: cold compile, plan facts, evaluation
# ---------------------------------------------------------------------------

@dataclass
class Shape:
    name: str
    query: Any                      # ConjunctiveQuery of the reference
    circuit: Any                    # word circuit
    outputs: List[int]
    plan: Any                       # engine.ExecutionPlan
    word_gates: int
    #: instance -> engine input (untimed); prepared inputs -> raw answers
    #: (timed); raw answer -> relation in the reference's names (untimed).
    prepare: Callable[[Database], Any]
    evaluate: Callable[[List[Any]], List[Any]]
    finish: Callable[[Any], Relation] = lambda answer: answer
    compile_s: float = 0.0
    timed: Any = None               # calib.Timed of its cold compile

    def facts(self) -> Dict[str, int]:
        """Exact counts read from the public ``ExecutionPlan`` fields."""
        plan = self.plan
        dispatches = 1 if plan.input_pack is not None else 0
        segments = plan.segments or [engine.Segment(0, len(plan.levels),
                                                    False)]
        for seg in segments:
            if seg.fused:
                dispatches += 1
                continue
            for lvl in plan.levels[seg.start:seg.stop]:
                dispatches += (len(lvl.groups) + len(lvl.bit_groups)
                               + (lvl.pack is not None)
                               + (lvl.unpack is not None))
        return {"word_gates": self.word_gates, "levels": plan.depth,
                "word_slots": plan.n_slots, "bit_slots": plan.n_bit_slots,
                "fused_segments": sum(1 for s in plan.segments if s.fused),
                "dispatches": dispatches,
                "buffer_bytes_b1": plan.buffer_bytes(1),
                "buffer_bytes_b1024": plan.buffer_bytes(1024)}

    def reinsert(self) -> None:
        """Put this shape's plan back after a cold compile cleared it."""
        cache = engine.DEFAULT_PLAN_CACHE
        cache.put(cache.key_for(self.circuit, self.outputs), self.plan)


def _plan(circuit, outputs):
    with span("plan"):
        plan = engine.DEFAULT_PLAN_CACHE.get(circuit, outputs)
    with span("kernels"):
        plan.kernels()
    return plan


def tri_signature(sz: Sizes):
    q = triangle_query()
    return q, repro.plan_signature(q, uniform_dc(q, sz.tri_n))


def canonical_env(sig, query, db) -> Dict[str, Relation]:
    """The request's instance in the canonical plan's names."""
    return {sig.atom_map[a.name]:
            db[a.name].reorder(a.vars).rename(dict(sig.var_map))
            for a in query.atoms}


def tri_from_compiled(cq, sig, query) -> Shape:
    lowered = cq.lowered
    outputs = engine.lowered_output_gates(lowered)
    plan = _plan(lowered.circuit, outputs)
    inverse = sig.inverse_var_map
    return Shape("tri6", query, lowered.circuit, outputs, plan,
                 lowered.size,
                 prepare=lambda db: canonical_env(sig, query, db),
                 evaluate=cq.evaluate_batch,
                 finish=lambda answer: answer.rename(inverse))


def _lowered_shape(name, query, lowered) -> Shape:
    outputs = engine.lowered_output_gates(lowered)
    plan = _plan(lowered.circuit, outputs)

    def evaluate(envs):
        return [outs[0] for outs in engine.run_lowered(lowered, envs)]
    return Shape(name, query, lowered.circuit, outputs, plan, lowered.size,
                 prepare=lambda db: {a.name: db[a.name] for a in query.atoms},
                 evaluate=evaluate)


def build_shape(name: str, sz: Sizes) -> Shape:
    """One cold compile (the caller clears the plan cache and times it)."""
    import repro.boolcircuit.lower as lower_mod

    if name == "tri6":
        q, sig = tri_signature(sz)
        cq = repro.compile(sig.canonical_query, dc=sig.canonical_dc)
        cq.log_bound
        cq.proof
        cq.circuit
        return tri_from_compiled(cq, sig, q)
    if name == "fig1":
        with span("core"):
            rc = triangle_circuit(sz.fig1_n)
        return _lowered_shape(name, triangle_query(),
                              lower_mod.lower(rc))
    if name == "yc":
        q = parse_query(PATH3)
        with span("core"):
            rc, _ = yannakakis_c(q, uniform_dc(q, sz.yc_n),
                                 out_bound=sz.yc_out)
        return _lowered_shape(name, q, lower_mod.lower(rc))
    if name == "fig3":
        q = parse_query(PK)
        with span("core"):
            b = ArrayBuilder()
            r = b.input_array(("A", "B"), sz.fig3_m)
            s = b.input_array(("B", "C"), sz.fig3_m)
            out = pk_join(b, r, s)
        outputs = [g for bus in out.buses for g in (*bus.fields, bus.valid)]
        plan = _plan(b.c, outputs)

        def evaluate(dbs):
            rows = [ArrayBuilder.encode_relation(db["R"], r)
                    + ArrayBuilder.encode_relation(db["S"], s) for db in dbs]
            run = engine.evaluate(b.c, rows, outputs=outputs)
            answers = []
            for i in range(len(dbs)):
                answers.append(Relation(out.schema, [
                    tuple(int(run.gate(f)[i]) for f in bus.fields)
                    for bus in out.buses if run.gate(bus.valid)[i]]))
            return answers
        return Shape(name, q, b.c, outputs, plan, b.c.size,
                     prepare=lambda db: db, evaluate=evaluate)
    raise ValueError(f"unknown shape {name!r}")


def shape_instance(name: str, sz: Sizes, rng) -> Database:
    if name == "tri6":
        return tri_instances(sz, 1, rng)[0]
    if name == "fig1":
        return fig1_instance(sz, rng)
    if name == "fig3":
        return fig3_instance(sz, rng)
    return yc_instances(sz, 1, rng)[0]


def cold_compile(name: str, sz: Sizes) -> Shape:
    engine.DEFAULT_PLAN_CACHE.clear()
    with scope(name):
        t0 = time.perf_counter()
        shape = build_shape(name, sz)
        shape.compile_s = time.perf_counter() - t0
    return shape


def check_shape(shape: Shape, db: Database, checker: Checker) -> None:
    """Evaluate a fresh plan once at batch 1 (untimed) and check it."""
    try:
        answer = shape.finish(shape.evaluate([shape.prepare(db)])[0])
    except Exception as exc:   # a failed evaluation is a counted failure
        checker.error(shape.name, f"{type(exc).__name__}: {exc}")
        return
    checker.check(answer, shape.query.evaluate(db), shape.name)


# ---------------------------------------------------------------------------
# serve stage
# ---------------------------------------------------------------------------

@dataclass
class Request:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    status: int = 0
    queue_ms: float = 0.0
    batch_size: int = 0
    phase: str = ""
    key: tuple = ()
    traced: bool = True
    #: the interval whose host-speed samples scale its latency
    window: tuple = ()

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class ServeLoad:
    """Seeded instances and their wire bodies for one serve stage."""

    dbs: List[Database]
    bodies: List[Dict[str, Any]]
    refs: List[Relation]
    keys: List[tuple]

    @classmethod
    def make(cls, sz: Sizes, count: int, rng) -> "ServeLoad":
        q = triangle_query()
        dbs = tri_instances(sz, count, rng)
        bodies = [{"query": TRIANGLE, "n": sz.tri_n,
                   "db": database_to_wire(db, q)} for db in dbs]
        return cls(dbs, bodies, [q.evaluate(db) for db in dbs],
                   [content_key(db) for db in dbs])


def poisson_schedule(rate: float, count: int, rng) -> List[float]:
    return list(np.cumsum(rng.exponential(1.0 / rate, size=count)))


class ServeDriver:
    """Drives ``QueryServer.dispatch`` from one asyncio task; no sockets."""

    def __init__(self, server: QueryServer, load: ServeLoad,
                 checker: Checker) -> None:
        self.server = server
        self.load = load
        self.checker = checker
        self.requests: List[Request] = []
        self.late_max = 0.0
        self._next = 0
        #: traced run: record spans for even-numbered requests only, so the
        #: phase times the same requests with and without tracing.
        self.alternate = False

    async def _one(self, req: Request) -> None:
        i = req.index % len(self.load.bodies)
        req.key = self.load.keys[i]
        req.traced = not self.alternate or req.index % 2 == 0
        with scope(req.phase), recording(req.traced):
            with span("serve", request=req.index):
                try:
                    status, doc = await self.server.dispatch(
                        "POST", "/v1/evaluate", self.load.bodies[i])
                except Exception as exc:   # never lose a request silently
                    status, doc = 0, {"error": repr(exc)}
        req.done = time.perf_counter()
        req.status = status
        if status != 200:
            self.checker.error(req.phase, f"status {status}: {doc}")
            return
        req.queue_ms = doc["timings"]["queue_ms"]
        req.batch_size = doc["batch_size"]
        req.ok = self.checker.check(relation_from_wire(doc["answers"]),
                                    self.load.refs[i], req.phase)

    async def open_loop(self, phase: str, offsets: Sequence[float]) -> None:
        """Send at ``start + offset`` whatever the backlog (open loop)."""
        start = time.perf_counter()
        tasks = []
        for off in offsets:
            req = Request(self._next, start + off, phase=phase)
            self._next += 1
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            req.sent = time.perf_counter()
            self.late_max = max(self.late_max, req.sent - req.due)
            self.requests.append(req)
            tasks.append(asyncio.ensure_future(self._one(req)))
        await asyncio.gather(*tasks)

    async def closed_loop(self, phase: str, count: int) -> None:
        """Each request is due when the previous one completes."""
        for _ in range(count):
            req = Request(self._next, time.perf_counter(), phase=phase)
            self._next += 1
            req.sent = time.perf_counter()
            self.requests.append(req)
            await self._one(req)

    def phase(self, name: str) -> List[Request]:
        return [r for r in self.requests if r.phase == name]


def new_server() -> QueryServer:
    # max_queue well above any backlog this benchmark builds: overload is
    # measured as queueing, never as refusals.
    return QueryServer(workers=os.cpu_count() or 1, max_queue=1 << 20)


async def server_compile(server: QueryServer, sz: Sizes, tag: str):
    """Compile through the server's own path (``/v1/compile``); spans
    opened inside are tagged ``tag``."""
    with scope(tag):
        status, doc = await server.dispatch(
            "POST", "/v1/compile", {"query": TRIANGLE, "n": sz.tri_n})
    if status != 200:
        raise RuntimeError(f"/v1/compile failed: {status} {doc}")
    return doc["plan_key"]


# ---------------------------------------------------------------------------
# batch stage
# ---------------------------------------------------------------------------

@dataclass
class BatchLoad:
    """Seeded instances and references for one circuit at the largest batch."""

    shape: Shape
    envs: List[Any]             # prepared inputs
    refs: List[Relation]

    @classmethod
    def make(cls, shape: Shape, dbs: List[Database]) -> "BatchLoad":
        return cls(shape, [shape.prepare(db) for db in dbs],
                   [shape.query.evaluate(db) for db in dbs])


def run_batch(load: BatchLoad, batch: int, checker: Checker) -> float:
    """One timed ``evaluate_batch`` call; returns its wall seconds."""
    shape = load.shape
    with scope(f"batch.{shape.name}.b{batch}"):
        t0 = time.perf_counter()
        try:
            answers = shape.evaluate(load.envs[:batch])
        except Exception as exc:
            checker.error(shape.name, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
    for answer, ref in zip(answers, load.refs[:batch]):
        checker.check(shape.finish(answer), ref, f"{shape.name}.b{batch}")
    return dt


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else \
        float("nan")
