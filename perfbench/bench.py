"""Workloads, metrics and the traced run's self-time accounting.

``run()`` executes one workload and returns the result document plus the
run's metadata.  See ``perfbench/README.md`` for what each workload and
metric measures and why it was chosen.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro import engine

from . import spans
from .calib import Calibration, Timed, Unscaled
from .pipeline import (
    FULL,
    SHAPES,
    TOY,
    BatchLoad,
    Checker,
    ServeDriver,
    ServeLoad,
    Shape,
    Sizes,
    check_shape,
    cold_compile,
    content_key,
    median,
    new_server,
    poisson_schedule,
    quantile,
    run_batch,
    server_compile,
    shape_instance,
    tri_instances,
    yc_instances,
)
from .spans import RECORDER, recording

#: In-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Open-loop hygiene: a run whose generator sends any request later than
#: this after its due time is invalid (``correct`` is false).
LATE_BOUND_MS = 100.0
#: Traced run: layer self times must sum to each stage's measured wall
#: within this share of the wall; the residual is ``*.unattributed_s``.
SUM_TOLERANCE = 0.05
#: Steady percentile reported, chosen so that a run leaves at least
#: ``MIN_TAIL`` samples beyond it (the steady phase sends enough).
STEADY_PCT = 0.75
MIN_TAIL = 10
#: Steady phase: requests per second of ``--seconds`` (at least
#: ``MIN_TAIL / (1 - STEADY_PCT)`` of them).
STEADY_PER_SECOND = 3
#: Overload arrival window, as a share of ``--seconds`` (split evenly
#: over the segments).
OVERLOAD_SHARE = 0.8
#: Serve warm-up before any timing: requests this far apart overlap, so
#: every executor thread starts.
WARMUP_REQUESTS = 2 * (os.cpu_count() or 1)
WARMUP_GAP = 0.01
#: serve-triangle alternates steady parts and overload bursts this many
#: times, with a batch slice before each, so every serve metric samples
#: the whole run.
SEGMENTS = 2
#: Probe slice sizes, for the stages a workload does not stress.
PROBE_SEQUENTIAL = 10
PROBE_BURST = 24
PROBE_BURSTS = 6
PROBE_SMALL_CALLS = 5
#: Distinct serve instances prepared for probes (more than any run uses).
PROBE_INSTANCES = 400
#: Compiled shapes kept after their compile (the serve and batch circuits).
KEEP = ("tri6", "yc")

#: Shapes each workload compiles (the traced run compiles all four).
OWN_SHAPES = {"compile-batch": SHAPES, "serve-triangle": ("tri6",)}
#: compile-batch compiles the two batch circuits first, so that a batch
#: round can follow every later compile.
PASS_ORDER = ("yc", "tri6", "fig1", "fig3")
STATE_DIR = ".perfbench"


@dataclass
class Outcome:
    """Everything one execution of a workload measured."""

    cal: Optional[Calibration] = None
    import_s: Optional[Timed] = None
    setup_s: List[Timed] = field(default_factory=list)
    #: per pass, the cold compiles it adds up
    compile_s: List[List[Timed]] = field(default_factory=list)
    facts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    compiles: Dict[str, int] = field(default_factory=dict)
    compile_wall: float = 0.0
    driver: Optional[ServeDriver] = None
    #: overload: per burst, its correct answers and the busy seconds they
    #: took
    served: List[tuple] = field(default_factory=list)
    serve_stats: Dict[str, float] = field(default_factory=dict)
    #: per batch size: groups of calls, each pooled into one rate
    rows: Dict[int, List[List[Timed]]] = field(default_factory=dict)
    batch_wall: float = 0.0
    batch_calls: Dict[str, int] = field(default_factory=dict)
    #: traced run: the same unit of main work timed with and without spans
    traced_units: List[float] = field(default_factory=list)
    untraced_units: List[float] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)

    def latency_ms(self, q: float, cal: Calibration = Unscaled()) -> float:
        lat = [r.latency * 1e3 * cal.factor(*r.window)
               for r in self.driver.phase("steady") if r.ok]
        return quantile(lat, q)


# ---------------------------------------------------------------------------
# one execution
# ---------------------------------------------------------------------------

class Execution:
    """One execution of a workload: set-up, then its stages.

    Probe slices (a few sequential requests, a burst, a batch call or two)
    are spread over the run, between the main stage's steps, so a probe
    metric samples the whole run rather than one moment of it.
    """

    def __init__(self, workload: str, seed: int, seconds: float, sz: Sizes,
                 checker: Checker, cal: Calibration,
                 traced: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sz = sz
        self.checker = checker
        #: the traced run compiles every shape and batches both circuits,
        #: so every per-layer metric exists in every workload
        self.traced = traced
        self.out = Outcome(cal=cal)
        self.shapes: Dict[str, Shape] = {}
        self.inputs: Dict[str, Any] = {}
        self.loads: Dict[str, BatchLoad] = {}
        self.probed: set = set()
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server = None
        self.driver: Optional[ServeDriver] = None
        self._stats_before: Optional[Dict[str, Any]] = None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> Dict[str, Any]:
        """Instance generation (and references) from the seed."""
        rng = np.random.default_rng(self.seed)
        sz, inputs = self.sz, {}
        inputs["compile"] = {s: shape_instance(s, sz, rng) for s in SHAPES}
        if self.workload == "serve-triangle":
            n_steady = max(math.ceil(MIN_TAIL / (1 - STEADY_PCT)),
                           math.ceil(STEADY_PER_SECOND * self.seconds))
            window = OVERLOAD_SHARE * self.seconds / SEGMENTS
            inputs["steady"], inputs["overload"] = [], []
            for k in range(SEGMENTS):
                inputs["steady"].append(poisson_schedule(
                    sz.steady_rps, n_steady // SEGMENTS
                    + (k < n_steady % SEGMENTS), rng))
                over = poisson_schedule(
                    sz.overload_rps, math.ceil(4 * sz.overload_rps * window),
                    rng)
                inputs["overload"].append([t for t in over if t < window])
            n = (sum(map(len, inputs["steady"] + inputs["overload"]))
                 + WARMUP_REQUESTS)
        else:
            n = PROBE_INSTANCES
        inputs["serve"] = ServeLoad.make(sz, n, rng)
        big = max(sz.batches)
        if self.workload == "compile-batch" or self.traced:
            inputs["batch.yc"] = yc_instances(sz, big, rng)
        inputs["batch.tri6"] = tri_instances(sz, big, rng)
        return inputs

    # -- compile -------------------------------------------------------------
    def compile(self, name: str) -> Shape:
        """One timed cold compile, checked; tri6 and yc are kept."""
        shape = cold_compile(name, self.sz)
        self._timed_compile(shape)
        self._record_shape(shape)
        check_shape(shape, self.inputs["compile"][name], self.checker)
        self.shapes[name] = shape if name in KEEP else None
        gc.collect()          # the compile's garbage, outside any timing
        return shape

    def _timed_compile(self, shape: Shape) -> Timed:
        """The compile that just ended."""
        t1 = time.perf_counter()
        shape.timed = Timed(shape.compile_s, t1 - shape.compile_s, t1)
        return shape.timed

    def _record_shape(self, shape: Shape) -> None:
        name, fp = shape.name, shape.plan.fingerprint
        if self.out.fingerprints.setdefault(name, fp) != fp:
            self.checker.error(name, "plan fingerprint changed between "
                                     "passes")
        self.out.facts[name] = shape.facts()
        self.out.compiles[name] = self.out.compiles.get(name, 0) + 1
        self.out.compile_wall += shape.compile_s

    def compile_extra(self) -> None:
        """Traced run: also compile the shapes the workload does not own."""
        if self.traced:
            for name in SHAPES:
                if name not in OWN_SHAPES[self.workload]:
                    self.compile(name)
            gc.collect()

    def _reinsert(self) -> None:
        for shape in self.shapes.values():
            if shape is not None:
                shape.reinsert()

    # -- serve ---------------------------------------------------------------
    def _serve_ready(self) -> None:
        if self.driver is None:
            # The server compiles tri6 through its own path; the engine plan
            # is cached, so this is short, and it is not timed.
            self.loop.run_until_complete(
                server_compile(self.server, self.sz, "probe"))
            self.driver = ServeDriver(self.server, self.inputs["serve"],
                                      self.checker)
            self.out.driver = self.driver
            # The executor starts its threads lazily; overlapping warm-up
            # requests start all of them before anything is timed.
            self.loop.run_until_complete(self.driver.open_loop(
                "warmup", [i * WARMUP_GAP for i in range(WARMUP_REQUESTS)]))
            _, self._stats_before = self.loop.run_until_complete(
                self.server.dispatch("GET", "/v1/stats"))

    def serve_slice(self) -> None:
        """Probe: sequential requests, then a burst all due at once."""
        self._reinsert()
        gc.collect()
        self._serve_ready()
        d = self.driver
        n0, t0 = len(d.requests), time.perf_counter()
        self.loop.run_until_complete(
            d.closed_loop("steady", PROBE_SEQUENTIAL))
        self._steady_part(n0, t0)
        t0 = time.perf_counter()
        self._served([self._burst([0.0] * PROBE_BURST)
                      for _ in range(PROBE_BURSTS)], t0)

    def serve_segment(self, k: int) -> None:
        """Open loop: part ``k`` of the steady phase, then an overload
        burst and the drain of its backlog."""
        # The garbage of set-up, compiles and batch calls is collected
        # here, untimed: a full collection of the compiled plans' heap
        # inside the open loop stalls the generator by 100-300 ms.
        gc.collect()
        d = self.driver
        d.alternate = self.traced   # tracing cost: trace every other request
        n0, t0 = len(d.requests), time.perf_counter()
        self.loop.run_until_complete(
            d.open_loop("steady", self.inputs["steady"][k]))
        self._steady_part(n0, t0)
        d.alternate = False
        t0 = time.perf_counter()
        self._served([self._burst(self.inputs["overload"][k])], t0)

    def _burst(self, offsets) -> tuple:
        """Correct answers, and the seconds from the burst's start until
        its backlog has drained (arrivals outpace capacity, so the server
        is busy all that time)."""
        d = self.driver
        t0 = time.perf_counter()
        n0 = len(d.requests)
        self.loop.run_until_complete(d.open_loop("overload", offsets))
        burst = d.requests[n0:]
        return sum(r.ok for r in burst), max(r.done for r in burst) - t0

    # The server's work runs in its executor threads while the main thread,
    # where host speed is sampled, idles in the event loop, so it is scaled
    # by all the samples of the part of a slice or segment it belongs to
    # (steady, or overload) rather than by those of its own few dozen
    # milliseconds.
    def _steady_part(self, n0: int, t0: float) -> None:
        t1 = time.perf_counter()
        for r in self.driver.requests[n0:]:
            r.window = (t0, t1)

    def _served(self, bursts, t0: float) -> None:
        t1 = time.perf_counter()
        self.out.served.extend((ok, Timed(busy, t0, t1))
                               for ok, busy in bursts)

    def _serve_stats(self) -> None:
        if self.driver is None:
            return
        _, after = self.loop.run_until_complete(
            self.server.dispatch("GET", "/v1/stats"))
        before = self._stats_before
        hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
        misses = (after["plan_cache"]["misses"]
                  - before["plan_cache"]["misses"])
        if after["counters"]["compiles"] != 1:
            self.out.invalid.append(
                f"the server compiled {after['counters']['compiles']} plans "
                f"for one query shape")
        self.out.serve_stats = {
            "serve.plan_cache_hit_ratio": hits / max(1, hits + misses),
            "serve.compiles": after["counters"]["compiles"],
            "serve.generator_late_ms_max": self.driver.late_max * 1e3,
        }

    # -- batch ---------------------------------------------------------------
    def _loads(self) -> List[BatchLoad]:
        for name in ("tri6", "yc"):
            if (name not in self.loads and self.shapes.get(name) is not None
                    and f"batch.{name}" in self.inputs):
                self.loads[name] = BatchLoad.make(
                    self.shapes[name], self.inputs[f"batch.{name}"])
        return list(self.loads.values())

    def batch_slice(self) -> None:
        """Probe: calls per circuit at batch 64, and one at 1024."""
        self._reinsert()
        small, large = self.sz.batches
        for load in self._loads():
            if load.shape.name == "yc":
                if "yc" in self.probed:
                    continue    # traced run: one yc probe gives its layers
                self.probed.add("yc")
            for b in [small] * PROBE_SMALL_CALLS + [large]:
                self.out.rows.setdefault(b, []).append(
                    [self._batch_call(load, b)])

    def batch_round(self) -> None:
        """Main: every circuit at every batch; one pooled rate per batch."""
        loads = self._loads()
        small, large = self.sz.batches
        for b, calls in ((small, PROBE_SMALL_CALLS), (large, 1)):
            self.out.rows.setdefault(b, []).append(
                [self._batch_call(load, b)
                 for load in loads for _ in range(calls)])

    def _batch_call(self, load: BatchLoad, b: int) -> Timed:
        dt = run_batch(load, b, self.checker)
        t1 = time.perf_counter()
        if RECORDER.recording or not self.traced:
            self.out.batch_wall += dt
            key = f"batch.{load.shape.name}.b{b}"
            self.out.batch_calls[key] = self.out.batch_calls.get(key, 0) + 1
        return Timed(dt, t1 - dt, t1)

    # -- workloads -----------------------------------------------------------
    def compile_batch(self) -> None:
        if self.traced:
            # Tracing cost: tri6 compiled once without spans, once with.
            with recording(False):
                self.out.untraced_units.append(
                    cold_compile("tri6", self.sz).compile_s)
            gc.collect()
        start = time.perf_counter()
        while True:
            t_pass, timed = time.perf_counter(), []
            for name in PASS_ORDER:
                shape = self.compile(name)
                timed.append(shape.timed)
                if name == "tri6":
                    self.out.traced_units.append(shape.compile_s)
                if name != PASS_ORDER[0]:
                    self._reinsert()
                    self.batch_round()
                    self.serve_slice()
            self.out.compile_s.append(timed)
            now = time.perf_counter()
            if (now - start) + (now - t_pass) > self.seconds:
                break

    def serve_triangle(self) -> None:
        self.out.compile_s.append([self.compile("tri6").timed])
        self._serve_ready()
        self.compile_extra()
        for k in range(SEGMENTS):
            self.batch_slice()
            self._reinsert()
            self.serve_segment(k)
        for traced, units in ((True, self.out.traced_units),
                              (False, self.out.untraced_units)):
            units.extend(r.latency for r in self.driver.phase("steady")
                         if r.ok and r.traced == traced)
        late_ms = self.driver.late_max * 1e3
        if late_ms > LATE_BOUND_MS:
            self.out.invalid.append(
                f"generator fell {late_ms:.1f} ms behind its schedule "
                f"(bound {LATE_BOUND_MS:g} ms)")

    def run(self) -> Outcome:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.inputs = self.setup()
            t1 = time.perf_counter()
            self.out.setup_s.append(Timed(t1 - t0, t0, t1))
        self.loop = asyncio.new_event_loop()
        self.server = new_server()
        try:
            if self.workload == "compile-batch":
                self.compile_batch()
            else:
                self.serve_triangle()
            self._serve_stats()
        finally:
            self.server.close()
            self.loop.close()
        return self.out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def steady_samples(out: Outcome) -> int:
    return sum(r.ok for r in out.driver.phase("steady"))


def _rates(out: Outcome, cal: Calibration, batch: int) -> List[float]:
    """Instances per second, one per call group."""
    return [batch * len(group) / sum(cal.seconds(m) for m in group)
            for group in out.rows[batch]]


def end_to_end(out: Outcome, cal: Calibration) -> Dict[str, float]:
    """Every timing scaled by ``cal``: ``out.cal`` gives them at nominal
    host speed (``perfbench/calib.py``), ``Unscaled()`` as measured."""
    small, large = min(out.rows), max(out.rows)
    return {
        "setup_s": cal.seconds(out.import_s) + median(
            [cal.seconds(m) for m in out.setup_s]),
        "compile_s": median([sum(cal.seconds(m) for m in timed)
                             for timed in out.compile_s]),
        "word_gates": sum(f["word_gates"] for f in out.facts.values()),
        "levels": sum(f["levels"] for f in out.facts.values()),
        "latency_p50_ms": out.latency_ms(0.5, cal),
        "served_rps": sum(ok for ok, _ in out.served) / sum(
            cal.seconds(m) for _, m in out.served),
        "rows_per_s_b64": median(_rates(out, cal, small)),
        "rows_per_s_b1024": median(_rates(out, cal, large)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _batch_owner(spans_: List[spans.Span]) -> List[int]:
    """Index of each span's nearest ``api`` ancestor (itself included)."""
    owner = [-1] * len(spans_)
    for i, sp in enumerate(spans_):       # parents precede children
        if sp.layer == "api":
            owner[i] = i
        elif sp.parent >= 0:
            owner[i] = owner[sp.parent]
    return owner


def per_layer(out: Outcome, checker: Checker) -> Dict[str, float]:
    sp_ = RECORDER.spans
    selfs = RECORDER.self_times()
    m: Dict[str, float] = {}
    by_scope: Dict[tuple, float] = {}
    for sp, s in zip(sp_, selfs):
        by_scope[(sp.scope, sp.layer)] = by_scope.get(
            (sp.scope, sp.layer), 0.0) + s

    # compile: per-shape layer self times (per compile) and plan facts
    attributed = 0.0
    for name in SHAPES:
        n = out.compiles[name]
        for layer in LAYER_METRICS[name]:
            m[f"compile.{name}.{layer}_s"] = by_scope.get(
                (name, layer), 0.0) / n
        attributed += sum(v for (sc, _), v in by_scope.items() if sc == name)
        for k, v in out.facts[name].items():
            m[f"compile.{name}.{k}"] = v
    m["compile.unattributed_s"] = out.compile_wall - attributed
    _check_sum(out, "compile", out.compile_wall, attributed)

    # serve: per-phase request and batch-call breakdowns
    owner = _batch_owner(sp_)
    batch_of_key: Dict[tuple, int] = {}
    dispatch_of: Dict[int, int] = {}
    for i, sp in enumerate(sp_):
        if sp.layer == "api" and "members" in sp.attrs:
            for key in sp.attrs["members"]:
                batch_of_key[(sp.scope, key)] = i
        elif sp.layer == "serve" and "request" in sp.attrs:
            dispatch_of[sp.attrs["request"]] = i
    for phase in ("steady", "overload"):
        reqs = out.driver.phase(phase)
        ok = [r for r in reqs if r.ok]
        self_ms = []
        for r in ok:
            d = dispatch_of.get(r.index)
            b = batch_of_key.get((phase, r.key))
            if d is not None and b is not None:
                self_ms.append((sp_[d].duration - sp_[b].duration) * 1e3)
        calls = sorted({i for i, sp in enumerate(sp_)
                        if sp.layer == "api" and sp.scope == phase})
        enc = {c: 0.0 for c in calls}
        dec = {c: 0.0 for c in calls}
        exe = {c: 0.0 for c in calls}
        for i, sp in enumerate(sp_):
            c = owner[i]
            if c not in enc:
                continue
            if sp.layer == "api.encode":
                enc[c] += sp.duration
            elif sp.layer == "api.decode":
                dec[c] += selfs[i]
            elif sp.layer == "engine":
                exe[c] += sp.duration
        m[f"{phase}.serve.self_ms_p50"] = median(self_ms)
        m[f"{phase}.serve.queue_ms_p50"] = median([r.queue_ms for r in ok])
        m[f"{phase}.serve.batch_size_mean"] = float(
            np.mean([r.batch_size for r in ok])) if ok else float("nan")
        m[f"{phase}.serve.rejected_share"] = (
            sum(1 for r in reqs if r.status != 200) / max(1, len(reqs)))
        m[f"{phase}.api.encode_ms_p50"] = median(
            [v * 1e3 for v in enc.values()])
        m[f"{phase}.api.decode_ms_p50"] = median(
            [v * 1e3 for v in dec.values()])
        m[f"{phase}.engine.exec_ms_p50"] = median(
            [v * 1e3 for v in exe.values()])
        # Each evaluate_batch call of k requests answers k of them.
        m[f"{phase}.engine.calls"] = sum(1.0 / r.batch_size for r in ok)
    m.update(out.serve_stats)

    # batch: per-call encode / exec / decode self times
    attributed = 0.0
    for name in ("tri6", "yc"):
        for b in sorted(out.rows):
            sc = f"batch.{name}.b{b}"
            n = out.batch_calls.get(sc, 0) or 1
            m[f"{sc}.encode_s"] = by_scope.get((sc, "api.encode"), 0.0) / n
            m[f"{sc}.exec_s"] = by_scope.get((sc, "engine"), 0.0) / n
            m[f"{sc}.decode_s"] = by_scope.get((sc, "api.decode"), 0.0) / n
            attributed += sum(v for (s, _), v in by_scope.items() if s == sc)
    m["batch.unattributed_s"] = out.batch_wall - attributed
    _check_sum(out, "batch", out.batch_wall, attributed)

    m["steady.latency_p75_ms"] = out.latency_ms(STEADY_PCT)
    m["steady.samples"] = steady_samples(out)
    m["trace_overhead"] = (median(out.traced_units)
                           / median(out.untraced_units))
    m["failed_share"] = checker.failed / max(1, checker.attempted)
    return m


#: Layers timed per compiled shape (fig3 is built as a word circuit, so it
#: has no lowering; only tri6 goes through CompiledQuery's bound and proof).
LAYER_METRICS = {
    "tri6": ("bounds", "core", "lower", "plan", "kernels"),
    "fig1": ("core", "lower", "plan", "kernels"),
    "fig3": ("core", "plan", "kernels"),
    "yc": ("core", "lower", "plan", "kernels"),
}


def _check_sum(out: Outcome, stage: str, wall: float,
               attributed: float) -> None:
    if wall > 0 and abs(wall - attributed) > SUM_TOLERANCE * wall:
        out.invalid.append(
            f"{stage}: layer self times sum to {attributed:.4f} s, measured "
            f"wall {wall:.4f} s (tolerance {SUM_TOLERANCE:.0%})")


# ---------------------------------------------------------------------------
# production-path guard, fingerprints across runs, metadata
# ---------------------------------------------------------------------------

GUARDED_ENV = ("REPRO_NO_FUSE", "REPRO_MEM_BUDGET")


def production_guard() -> List[str]:
    """Reasons the process is not on the production path (empty if it is)."""
    import tracemalloc

    problems = [f"{name} is set" for name in GUARDED_ENV
                if os.environ.get(name)]
    if repro.obs.enabled():
        problems.append("repro.obs is enabled")
    if tracemalloc.is_tracing():
        problems.append("tracemalloc is tracing")
    return problems


def check_fingerprints(root: str, sz: Sizes, seen: Dict[str, str],
                       checker: Checker) -> None:
    """Plan fingerprints must match every earlier run in this checkout."""
    path = os.path.join(root, STATE_DIR, "fingerprints.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    for name, fp in seen.items():
        key = f"{sz.tag}:{name}"
        if known.setdefault(key, fp) != fp:
            checker.error(name, f"plan fingerprint {fp} differs from an "
                                f"earlier run's {known[key]}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def metadata(workload, seed, seconds, trace, sz, out: Outcome) -> dict:
    import scipy

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "sizes": sz.tag,
            "instrumentation": (
                "span shims (traced run)" if trace else
                "none: obs off, tracemalloc off, fused engine"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "repro": repro.__version__, "fingerprints": out.fingerprints}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        toy: bool, inject_wrong: bool, import_s: float, cal: Calibration):
    sz = TOY if toy else FULL
    checker = Checker(inject_wrong)
    if not trace:
        ex = Execution(workload, seed, seconds, sz, checker, cal)
        now = time.perf_counter()
        ex.out.import_s = Timed(import_s, now - import_s, now)
        out = ex.run()
        metrics = end_to_end(out, cal)
    else:
        spans.install(lambda dbs: {"members": [content_key(db)
                                               for db in dbs]})
        try:
            out = Execution(workload, seed, seconds, sz, checker, cal,
                            traced=True).run()
        finally:
            spans.uninstall()
        metrics = per_layer(out, checker)
        RECORDER.dump(os.path.join(root, STATE_DIR,
                                   f"spans-{workload}-{seed}.json"))
    check_fingerprints(root, sz, out.fingerprints, checker)
    bad = [k for k, v in metrics.items()
           if not isinstance(v, (int, float)) or math.isnan(v)]
    if bad:
        out.invalid.append(f"metrics not measured: {', '.join(bad)}")
    meta = metadata(workload, seed, seconds, trace, sz, out)
    meta["steady_latency_ms"] = {
        "p50": out.latency_ms(0.5), f"p{STEADY_PCT * 100:.0f}":
        out.latency_ms(STEADY_PCT), "samples": steady_samples(out)}
    meta["reference_kernel_s"] = {"median": out.cal.median_took(),
                                  "samples": len(out.cal.took)}
    if not trace:
        meta["unscaled"] = end_to_end(out, Unscaled())
    if out.driver is not None:
        meta["generator_late_ms_max"] = out.driver.late_max * 1e3
    meta["invalid"] = out.invalid
    meta["errors"] = checker.errors
    correct = checker.failed == 0 and not out.invalid
    return {"correct": correct, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}, meta
