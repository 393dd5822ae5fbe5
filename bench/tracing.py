"""Traced mode: spans around the public functions of each stefanlab layer.

Nothing under src/ changes.  `Tracer.install()` replaces each target
function, in every stefanlab module that binds it by name, with a wrapper
that records a span; methods are replaced on their class.  A span holds its
name, start, end, parent span and thread.  Parents come from a per-thread
stack, so the worker threads of a sweep each get their own tree.  A layer's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass

_MODULES = ("stefanlab", "stefanlab.domain", "stefanlab.pde", "stefanlab.control",
            "stefanlab.weights", "stefanlab.observability", "stefanlab.stefan",
            "stefanlab.cli")


def _columns(args, kwargs) -> int:
    """Right-hand-side columns of a sweep: 1 for a vector, k for an (n+1, k) block."""
    data = args[1] if len(args) > 1 else kwargs.get("u0", kwargs.get("phiT"))
    shape = getattr(data, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


# (defining module, attribute path, what the span counts besides the call)
TARGETS = (
    ("domain", "write_field_csv", None),
    ("pde", "Propagator.__init__", None),
    ("pde", "Propagator.run_forward", "columns"),
    ("pde", "Propagator.run_adjoint", "columns"),
    ("pde", "Propagator.apply_gramian", None),
    ("pde", "solve_forward", None),
    ("pde", "solve_adjoint", None),
    ("pde", "solve_semilinear", None),
    ("control", "solve_hum", "iterations"),
    ("control", "dense_gramian", None),
    ("weights", "CarlemanParams.calibrate", None),
    ("weights", "check_weight_profile", None),
    ("weights", "carleman_sides", None),
    ("observability", "estimate_constant", "iterations"),
    ("observability", "dense_constant", None),
    ("stefan", "integrate_boundary", None),
    ("stefan", "coupled_solve", None),
    ("stefan", "fixed_point_iterate", "iterations"),
    ("cli", "run_experiment", None),
    ("cli", "main", None),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    round: int
    columns: int | None = None
    iterations: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers = {}
        self._origin = time.perf_counter()
        for module, path, extra in TARGETS:
            owner, attr, raw = self._resolve(module, path)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(f"{module}.{path}", fn, extra)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._wrappers[(module, path)] = (owner, attr, raw, wrapped)

    @staticmethod
    def _resolve(module: str, path: str):
        owner = importlib.import_module(f"stefanlab.{module}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        return owner, attr, raw

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extra: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                columns = _columns(args, kwargs) if extra == "columns" else None
                iterations = (int(result.iterations)
                              if extra == "iterations" and result is not None else None)
                tracer.spans.append(Span(sid, name, start - tracer._origin,
                                         end - tracer._origin, parent,
                                         threading.get_ident(), tracer.round,
                                         columns, iterations))

        return traced

    def install(self) -> None:
        """Bind every wrapper wherever stefanlab binds the original."""
        modules = [importlib.import_module(m) for m in _MODULES]
        for owner, attr, raw, wrapped in self._wrappers.values():
            if isinstance(owner, type):
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, name, raw))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "round": s.round,
                    "columns": s.columns, "iterations": s.iterations}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round


def _self_times(spans: list[Span]) -> dict[int, float]:
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


# name -> (unit, how it is computed from the spans of one round)
PER_LAYER = {
    "pde.build_s": ("s", "total", ("pde.Propagator.__init__",)),
    "pde.builds": ("count", "calls", ("pde.Propagator.__init__",)),
    "pde.sweep_s": ("s", "self", ("pde.Propagator.run_forward", "pde.Propagator.run_adjoint")),
    "pde.sweeps": ("count", "calls", ("pde.Propagator.run_forward",
                                      "pde.Propagator.run_adjoint")),
    "pde.sweep_columns": ("count", "columns", ("pde.Propagator.run_forward",
                                               "pde.Propagator.run_adjoint")),
    "pde.solve_s": ("s", "total", ("pde.solve_forward", "pde.solve_adjoint",
                                   "pde.solve_semilinear")),
    "control.hum_s": ("s", "self", ("control.solve_hum",)),
    "control.solves": ("count", "calls", ("control.solve_hum",)),
    "control.iterations": ("count", "iterations", ("control.solve_hum",)),
    "control.gramian_applies": ("count", "calls", ("pde.Propagator.apply_gramian",)),
    "observability.estimate_s": ("s", "total", ("observability.estimate_constant",)),
    "observability.iterations": ("count", "iterations", ("observability.estimate_constant",)),
    "observability.dense_s": ("s", "total", ("observability.dense_constant",)),
    "stefan.march_s": ("s", "total", ("stefan.coupled_solve",)),
    "stefan.fixed_point_s": ("s", "self", ("stefan.fixed_point_iterate",)),
    "stefan.outer_iterations": ("count", "iterations", ("stefan.fixed_point_iterate",)),
    "stefan.boundary_s": ("s", "total", ("stefan.integrate_boundary",)),
    "weights.carleman_s": ("s", "total", ("weights.carleman_sides",)),
    "weights.profile_s": ("s", "total", ("weights.CarlemanParams.calibrate",
                                         "weights.check_weight_profile")),
    "domain.csv_write_s": ("s", "total", ("domain.write_field_csv",)),
    "cli.sweep_s": ("s", "total", ("cli.main",)),
    "cli.row_s": ("s", "total", ("cli.run_experiment",)),
    "cli.run_self_s": ("s", "self", ("cli.run_experiment",)),
    # measured by the workload on the sweep root, not from spans
    "cli.artifact_bytes": ("bytes", "extra", ()),
}


def layer_metrics(spans: list[Span], extras: dict) -> dict[str, float]:
    """Every per-layer metric of one round; 0 where the layer did not run."""
    own = _self_times(spans)
    out = {}
    for name, (_, kind, targets) in PER_LAYER.items():
        chosen = [s for s in spans if s.name in targets]
        if kind == "total":
            out[name] = sum(s.duration for s in chosen)
        elif kind == "self":
            out[name] = sum(own[s.sid] for s in chosen)
        elif kind == "calls":
            out[name] = len(chosen)
        elif kind == "columns":
            out[name] = sum(s.columns for s in chosen)
        elif kind == "iterations":
            out[name] = sum(s.iterations for s in chosen if s.iterations is not None)
        else:
            out[name] = extras.get(name, 0)
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer (the module defining the function), in seconds.

    The sweep command's own span is left out: its self time is the main
    thread waiting for the worker threads, whose spans have no parent.
    """
    own = _self_times(spans)
    shares: dict[str, float] = {}
    for s in spans:
        if s.name == "cli.main":
            continue
        layer = s.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own[s.sid]
    return shares
