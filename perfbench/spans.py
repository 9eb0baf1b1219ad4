"""Span recorder for the traced pass: wrappers around layer entry points.

The wrappers are installed from outside the library, on module and class
attributes, for the duration of a `with tracer.installed():` block.  A
function imported by value into another module (`section.lyapunov_orbit`,
`section.variation_rho`) is patched everywhere the same object is bound, so
every caller goes through the wrapper.  A target that no longer exists
raises `MissingTarget`, so a rename shows as an error instead of a silent
zero.

Each span records its calls, its counts and its self time: its duration
minus the time covered by the spans it encloses.  Spans entered directly
from the op are top-level; their summed duration over the op wall time is
the coverage of the trace.
"""

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

ORBIT, VARIATION, BARYCENTER, CASCADE = "orbit", "variation", "barycenter", "cascade"


class MissingTarget(RuntimeError):
    """A traced library entry point no longer exists under its name."""


def _param(name):
    """Counter reading a call argument by name, defaults applied."""

    def read(args, kwargs, result, sig):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _mats(args, kwargs, result, sig):
    return np.size(result) // 4


def _size(args, kwargs, result, sig):
    return np.size(result)


_n = _param("n")


def _iterate_steps(args, kwargs, result, sig):
    # a negative n recurses into iterate(-n), which walks the steps
    return max(int(_n(args, kwargs, result, sig)), 0)


@dataclass(frozen=True)
class Target:
    """One traced entry point and the per-layer metrics it reports."""

    metric: str  # prefix of the reported metric names
    module: str  # cocyclelab submodule
    attr: str  # function name, or Class.method
    workloads: tuple  # workloads on which the span must record calls
    counters: dict = field(default_factory=dict)  # name -> counter
    calls: bool = False  # report the call count

    def metric_names(self):
        names = [f"{self.metric}.calls"] if self.calls else []
        names += [f"{self.metric}.{name}" for name in self.counters]
        return names + [f"{self.metric}.self_pct"]


_ALG_USERS = (ORBIT, VARIATION, CASCADE)

TARGETS = (
    # orbit walks
    Target("lyap.lyapunov_orbit", "lyap", "lyapunov_orbit", (ORBIT,),
           {"steps": lambda a, k, r, s: r.n}),
    Target("rotnum.fibered_rotation_number", "rotnum",
           "fibered_rotation_number", (ORBIT,), {"steps": _n}),
    # tree evaluation
    Target("cocycle.eval", "cocycle", "Cocycle.eval", _ALG_USERS,
           {"points": _mats}, calls=True),
    Target("trig.eval", "trig", "TrigPoly.eval", _ALG_USERS,
           {"points": _size}, calls=True),
    Target("cocycle.iterate", "cocycle", "Cocycle.iterate", (CASCADE,),
           {"steps": _iterate_steps}, calls=True),
    # batched 2x2 kernels
    Target("algebra.disk_coords", "algebra", "disk_coords",
           (VARIATION, CASCADE), {"items": _mats}, calls=True),
    Target("algebra.rot", "algebra", "rot", _ALG_USERS,
           {"items": _mats}, calls=True),
    Target("algebra.mat2", "algebra", "mat2", _ALG_USERS,
           {"items": _mats}, calls=True),
    Target("algebra.tau", "algebra", "tau", (VARIATION,),
           {"items": _size}, calls=True),
    Target("algebra.spectral_norm", "algebra", "spectral_norm", (CASCADE,),
           {"items": _size}, calls=True),
    Target("algebra.unwrap_args", "algebra", "unwrap_args", (CASCADE,),
           {"items": _size}, calls=True),
    Target("algebra.hyperbolic_distance_unchecked", "algebra",
           "hyperbolic_distance_unchecked", (CASCADE, BARYCENTER),
           {"items": _size}, calls=True),
    # parameter-path lifts
    Target("rotnum.variation_rho", "rotnum", "variation_rho", (VARIATION,),
           {"path_steps": lambda a, k, r, s: r.pathSteps,
            "point_steps": lambda a, k, r, s: r.n * r.pathSteps}),
    # renormalization, strips and sections
    Target("renorm.renorm_cascade", "renorm", "renorm_cascade", (CASCADE,)),
    Target("renorm.commuting_pair", "renorm", "commuting_pair", (CASCADE,)),
    Target("renorm.normalizing_map", "renorm", "normalizing_map", (CASCADE,)),
    Target("renorm.renorm_representative", "renorm", "renorm_representative",
           (CASCADE,), {"samples": lambda a, k, r, s: len(r.grid)}),
    Target("renorm.rotation_distance", "renorm", "rotation_distance",
           (CASCADE,)),
    Target("complexify.strip_width", "complexify", "strip_width", (CASCADE,)),
    Target("section.mirrored_sections", "section", "mirrored_sections",
           (CASCADE,)),
    Target("section.invariant_section", "section", "invariant_section",
           (CASCADE,), calls=True),
    # barycenter: the self time of conformal_barycenter is the compaction
    Target("barycenter.compaction", "barycenter", "conformal_barycenter",
           (BARYCENTER,)),
    Target("barycenter.pair_measures", "barycenter", "pair_measures",
           (BARYCENTER,), {"atoms_out": lambda a, k, r, s: len(r.atoms)},
           calls=True),
    Target("barycenter.canonical_point", "barycenter",
           "DiskMeasure.canonical_point", (BARYCENTER,)),
    Target("barycenter.spread", "barycenter", "DiskMeasure.spread",
           (BARYCENTER,)),
)

# counts a workload adds itself, from results the op already returns
OP_COUNTERS = ("barycenter.iterations",)


class _Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = defaultdict(float)


class Tracer:
    """Aggregated spans over the traced ops of one run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {t.metric: _Stat() for t in targets}
        self.top_s = 0.0  # summed duration of top-level spans
        self._stack = []

    def _wrap(self, target, fn):
        stat = self.stats[target.metric]
        counters = tuple(target.counters.items())
        sig = inspect.signature(fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s += dur
                stat.calls += 1
                stat.self_s += dur - frame[0]
            for name, count in counters:
                stat.counts[name] += count(args, kwargs, result, sig)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []
        try:
            for target in self.targets:
                patches += self._install(target)
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def _install(self, target):
        module = importlib.import_module(f"cocyclelab.{target.module}")
        owner_name, _, name = target.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner).get(name)
        if original is None:
            raise MissingTarget(f"cocyclelab.{target.module}.{target.attr}")
        wrapper = self._wrap(target, original)
        if owner_name:
            bindings = [(owner, name)]
        else:
            # every module binding of the same function object
            bindings = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "cocyclelab"
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for obj, key in bindings:
            setattr(obj, key, wrapper)
        return [(obj, key, original) for obj, key in bindings]

    def metrics(self, ops, op_wall_s, op_counts):
        """Per-layer values over `ops` traced ops of summed wall `op_wall_s`."""
        out = {}
        for target in self.targets:
            stat = self.stats[target.metric]
            if target.calls:
                out[f"{target.metric}.calls"] = (stat.calls / ops, "count")
            for name in target.counters:
                out[f"{target.metric}.{name}"] = (
                    stat.counts[name] / ops,
                    "count",
                )
            out[f"{target.metric}.self_pct"] = (
                100.0 * stat.self_s / op_wall_s,
                "%",
            )
        for name in OP_COUNTERS:
            out[name] = (op_counts.get(name, 0.0) / ops, "count")
        out["trace.coverage"] = (100.0 * self.top_s / op_wall_s, "%")
        return out

    def missing_spans(self, workload):
        """Targets expected on `workload` that recorded no call."""
        return [
            t.metric
            for t in self.targets
            if workload in t.workloads and self.stats[t.metric].calls == 0
        ]
