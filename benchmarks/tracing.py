"""Spans and draw counts for the traced benchmark run, taken from outside.

Every public function of each layer module is replaced, in every
``uncollapse`` module namespace that binds it, by a wrapper that records
a span (name, start, end, parent) in memory.  Wrapping only the defining
module would miss calls through names bound by ``from .x import y``.
``NoiseStream.generator`` is wrapped to return a proxy that forwards every
draw unchanged to the real generator, counting the normals and uniforms
drawn and the time spent inside the draw calls.

Pool children inherit the wrappers but never report back, so draw
counts exist only for work done in the benchmark process itself.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("cli", "trajectory", "evolving", "multiqubit", "phase", "measurement", "linalg", "charge", "stats")

# cli helpers that are not public but mark its own work (config parsing,
# writing outputs); they are recorded as spans of the cli layer
_EXTRA = {"cli": ("_write_outputs",)}

# walk loops whose draws are counted as walker steps
WALK_SPANS = frozenset({
    "trajectory.wait_and_stop_ensemble",
    "trajectory.targeted_ensemble",
    "trajectory.targeted_measurement",
})
# ensemble walks, where one normal draw is one step of every live walker
ENSEMBLE_SPANS = frozenset({"trajectory.wait_and_stop_ensemble", "trajectory.targeted_ensemble"})
# a draw is in the tail when fewer than this share of its block is live
TAIL_LIVE_FRACTION = 0.05
# wait-and-stop calls with d_tau at or below this are the fine-step regime
FINE_D_TAU = 0.01

# metrics taken from the one-worker pass when the timed pass used a pool
SERIAL_METRICS = (
    "trajectory.parallel_eff", "trajectory.walker_steps", "trajectory.uniforms_drawn",
    "trajectory.bulk_steps_per_s", "trajectory.tail_steps_per_s", "trajectory.tail_time_share",
    "trajectory.draw_s", "trajectory.draw_share", "trajectory.useful_step_share",
)

NOT_EXPOSED = (
    "trajectory.wait_and_stop_ensemble.escaped",
    "trajectory.wait_and_stop_ensemble.timed_out",
    "trajectory.targeted_ensemble.escaped",
    "trajectory.targeted_ensemble.timed_out",
    "trajectory.targeted_measurement.escaped",
)


@dataclass
class Span:
    name: str
    start: float = math.nan
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class DrawTally:
    normals: int = 0
    uniforms: int = 0
    seconds: float = 0.0


class CountingGenerator:
    """Forwards draws to a numpy Generator and reports each to the tracer."""

    def __init__(self, gen: np.random.Generator, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer
        self.block = None  # size of the first walk draw: the block's walker count

    def standard_normal(self, *args, **kwargs):
        return self._tracer.draw(self, True, self._gen.standard_normal, args, kwargs)

    def random(self, *args, **kwargs):
        return self._tracer.draw(self, False, self._gen.random, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.draws: dict[int, DrawTally] = {}  # walk span index -> its draws
        self.steps: list[tuple[int, float, int, int]] = []  # (span, start, walkers, block)
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, parent=open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def draw(self, proxy: CountingGenerator, normal: bool, method, args, kwargs):
        owner = self._open[-1] if self._open else -1
        name = self.spans[owner].name if owner >= 0 else ""
        if name not in WALK_SPANS:
            return method(*args, **kwargs)
        t0 = perf_counter()
        out = method(*args, **kwargs)
        t1 = perf_counter()
        n = int(np.size(out))
        if proxy.block is None:
            proxy.block = n
        tally = self.draws.setdefault(owner, DrawTally())
        tally.seconds += t1 - t0
        if normal:
            tally.normals += n
            if name in ENSEMBLE_SPANS:
                self.steps.append((owner, t0, n, proxy.block))
        else:
            tally.uniforms += n
        return out


# ---------------------------------------------------------------------------
# installing the wrappers


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _observers(modules) -> dict:
    """Per-span counters read from arguments and returned objects."""
    tj = modules["trajectory"]

    def wait_and_stop(span, args, kwargs, result):
        a = _bound_args(tj.wait_and_stop_ensemble, args, kwargs)
        d_tau = a["config"].d_tau
        span.attrs.update(d_tau=d_tau, crossed=result.successes, successes=result.successes,
                          residual=result.residual_success_bound)
        if result.waiting_times is not None:
            span.attrs["useful_steps"] = int(np.sum(np.floor(result.waiting_times / d_tau) + 1.0))

    def targeted(span, args, kwargs, result):
        span.attrs["crossed"] = int(result)

    def single(span, args, kwargs, result):
        span.attrs["crossed"] = int(bool(result[0]))

    def total(span, args, kwargs, result):
        span.attrs["successes"] = int(result)

    def integrator(span, args, kwargs, result):
        a = _bound_args(tj.simulate_evolving_pure, args, kwargs)
        span.attrs["steps"] = int(round(a["duration_tau"] / a["config"].d_tau))

    def multiqubit_run(span, args, kwargs, result):
        plan = args[0] if args else kwargs["plan"]
        span.attrs["n_qubits"] = int(round(math.log2(plan.dim)))

    return {
        "trajectory.wait_and_stop_ensemble": wait_and_stop,
        "trajectory.targeted_ensemble": targeted,
        "trajectory.targeted_measurement": single,
        "trajectory.sample_total_uncollapse": total,
        "trajectory.simulate_evolving_pure": integrator,
        "multiqubit.execute_plan": multiqubit_run,
    }


def _public_functions(module):
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if not inspect.isfunction(value) or value.__module__ != module.__name__:
            continue
        if not attr.startswith("_") or attr in _EXTRA.get(layer, ()):
            yield attr, value


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public functions wherever they are looked up."""
    modules = {layer: sys.modules[f"uncollapse.{layer}"] for layer in LAYERS}
    observers = _observers(modules)
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, observers.get(name)))
    namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("uncollapse") and m is not None]
    replaced = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                replaced.append((module, attr, value))

    stream_cls = modules["trajectory"].NoiseStream
    real_generator = stream_cls.generator

    def generator(self):
        return CountingGenerator(real_generator(self), tracer)

    stream_cls.generator = generator
    try:
        yield tracer
    finally:
        stream_cls.generator = real_generator
        for module, attr, value in replaced:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def _union_length(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ())
            if c.end > span.start and c.start < span.end
        ]
        out.append(span.duration - _union_length(clipped))
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] += own
    return totals


def busy(spans: list[Span], *names: str, where=None) -> float:
    return sum(s.duration for s in spans if s.name in names and (where is None or where(s)))


def step_split(tracer: Tracer) -> dict[str, float]:
    """Walker steps and loop time of ensemble walks, bulk versus tail.

    A step's time runs from its normal draw to the next draw of the same
    span, or to the span's end for the last one.
    """
    by_span: dict[int, list[tuple[float, int, int]]] = {}
    for owner, start, walkers, block in tracer.steps:
        by_span.setdefault(owner, []).append((start, walkers, block))
    out = dict(bulk_steps=0, bulk_s=0.0, tail_steps=0, tail_s=0.0)
    for owner, events in by_span.items():
        events.sort()
        ends = [e[0] for e in events[1:]] + [tracer.spans[owner].end]
        for (start, walkers, block), end in zip(events, ends):
            part = "tail" if walkers < TAIL_LIVE_FRACTION * block else "bulk"
            out[f"{part}_steps"] += walkers
            out[f"{part}_s"] += end - start
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(traced: Tracer, serial: Tracer | None, parallel_workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traced`` is the pass run as timed.  ``serial`` is the same pass at
    one worker when the timed pass used a pool: draws made in pool
    children are invisible, so draw counts come from the serial pass,
    which by the reproducibility contract draws the same numbers.
    Metrics of layers a workload never calls read 0.
    """
    spans = traced.spans
    counted = serial if serial is not None else traced
    cspans = counted.spans
    own = layer_self_seconds(spans)
    m: dict[str, float] = {"cli.self_s": own["cli"]}

    ws = "trajectory.wait_and_stop_ensemble"
    m["trajectory.wait_and_stop_s.fine"] = busy(spans, ws, where=lambda s: s.attrs.get("d_tau", 0.0) <= FINE_D_TAU)
    m["trajectory.wait_and_stop_s.coarse"] = busy(spans, ws, where=lambda s: s.attrs.get("d_tau", 0.0) > FINE_D_TAU)
    pool_calls = [s.duration for s in spans if s.name == "trajectory.sample_total_uncollapse"]
    m["trajectory.pool_call_s"] = statistics.median(pool_calls) if (pool_calls and serial is not None) else 0.0
    ensembles = (ws, "trajectory.sample_total_uncollapse")
    m["trajectory.parallel_eff"] = (
        _ratio(busy(cspans, *ensembles), parallel_workers * busy(spans, *ensembles)) if serial is not None else 0.0
    )

    tallies = counted.draws.values()
    normals = sum(t.normals for t in tallies)
    m["trajectory.walker_steps"] = float(normals)
    m["trajectory.uniforms_drawn"] = float(sum(t.uniforms for t in tallies))
    split = step_split(counted)
    m["trajectory.bulk_steps_per_s"] = _ratio(split["bulk_steps"], split["bulk_s"])
    m["trajectory.tail_steps_per_s"] = _ratio(split["tail_steps"], split["tail_s"])
    m["trajectory.tail_time_share"] = _ratio(split["tail_s"], split["bulk_s"] + split["tail_s"])
    draw_s = sum(t.seconds for t in tallies)
    m["trajectory.draw_s"] = draw_s
    m["trajectory.draw_share"] = _ratio(draw_s, busy(cspans, *WALK_SPANS))
    timed_walks = [i for i, s in enumerate(cspans) if s.name == ws and "useful_steps" in s.attrs]
    m["trajectory.useful_step_share"] = _ratio(
        sum(cspans[i].attrs["useful_steps"] for i in timed_walks),
        sum(counted.draws[i].normals for i in timed_walks if i in counted.draws),
    )
    m["trajectory.targeted_s"] = busy(spans, "trajectory.targeted_ensemble")
    m["trajectory.single_walk_s"] = busy(spans, "trajectory.targeted_measurement")
    integrator = "trajectory.simulate_evolving_pure"
    m["trajectory.integrator_s"] = busy(spans, integrator)
    m["trajectory.integrator_steps_per_s"] = _ratio(
        sum(s.attrs.get("steps", 0) for s in spans if s.name == integrator), m["trajectory.integrator_s"]
    )
    m["trajectory.crossed"] = float(sum(s.attrs.get("crossed", 0) for s in spans))
    m["trajectory.successes"] = float(sum(s.attrs.get("successes", 0) for s in spans))
    m["trajectory.residual_bound"] = float(sum(s.attrs.get("residual", 0.0) for s in spans))

    m["evolving.plan_s"] = busy(spans, "evolving.plan_from_kraus")
    m["evolving.two_step_s"] = busy(spans, "evolving.two_step_ensemble")

    for n_qubits in (2, 4, 6):
        runs = [s.duration for s in spans if s.name == "multiqubit.execute_plan" and s.attrs.get("n_qubits") == n_qubits]
        m[f"multiqubit.runs_per_s.N{n_qubits}"] = _ratio(len(runs), sum(runs))
    m["multiqubit.plan_s"] = busy(spans, "multiqubit.build_plan")

    for layer in ("linalg", "measurement", "phase", "charge", "stats"):
        m[f"{layer}.s"] = own[layer]
    return m


def span_records(tracer: Tracer) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
        for s in tracer.spans
    ]
