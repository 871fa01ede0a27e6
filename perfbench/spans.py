"""Spans recorded around calls into the solver's layers, from outside.

``Tracer.install`` replaces each traced function under the name its caller
looks it up by (a module global, a class attribute, or a field of the
frozen ``HyperbolicSystem``) with a wrapper that records a span
``(id, parent, thread, name, start_ns, end_ns)`` in memory.  The parent is
the enclosing span on the same thread; a worker thread's outermost span
takes as parent the span open on the main thread that dispatched it.  Self
time is a span's duration minus that of its children on the same thread.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gzip
import itertools
import threading
import time
from collections import defaultdict

import aderfv
import aderfv.ck
import aderfv.predictor
import aderfv.scheme
import aderfv.weno

# (owner, attribute, span name); the owner is where the caller looks it up.
TARGETS = (
    (aderfv.scheme, "reconstruct_padded", "weno.reconstruct_padded"),
    (aderfv.weno.ReconstructionSet, "evaluate", "weno.ReconstructionSet.evaluate"),
    (aderfv.predictor, "space_derivative", "nodes.space_derivative"),
    (aderfv.predictor, "time_derivative", "nodes.time_derivative[predictor]"),
    (aderfv.ck, "time_derivative", "nodes.time_derivative[ck]"),
    (aderfv.scheme, "build_grid", "nodes.build_grid"),
    (aderfv.predictor, "matrix_c", "ck.matrix_c"),
    (aderfv.predictor, "taylor_terms", "ck.taylor_terms"),
    (aderfv.scheme, "predictor_solve", "predictor.predictor_solve"),
    (aderfv.predictor, "initial_guess", "predictor.initial_guess"),
    (aderfv.predictor, "populate_stacks", "predictor.populate_stacks"),
    (aderfv.predictor, "newton_sweep", "predictor.newton_sweep"),
    (aderfv.scheme, "step", "scheme.step"),
    (aderfv.scheme, "cfl_timestep", "scheme.cfl_timestep"),
    (aderfv.scheme, "interface_flux", "scheme.interface_flux"),
    (aderfv.scheme, "cell_source", "scheme.cell_source"),
    (aderfv.scheme, "_predict", "scheme._predict"),
)
SYSTEM_FIELDS = ("flux", "flux_jacobian", "source", "source_jacobian",
                 "eigenvalues", "admissible")

# Layer functions reported as calls_per_step / self_ms_per_step / share.
LAYER_FUNCTIONS = tuple(
    [name.split("[")[0] for _, _, name in TARGETS
     if name != "scheme._predict" and not name.endswith("[ck]")]
    + [f"systems.{f}" for f in SYSTEM_FIELDS])


def base_name(span_name: str) -> str:
    """Metric name of a span: the binding tag ``[...]`` is dropped."""
    return span_name.split("[")[0]


class Tracer:
    """In-memory span recorder plus the predictor's work counters."""

    def __init__(self, residual_tol: float):
        self.spans = []
        self.residual_tol = residual_tol
        self.installed = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = []
        self._lock = threading.Lock()
        self.cells_evaluated = 0
        self.cells_active = 0
        self.final_residual_max = 0.0

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name,
                              start, end))
            if on_result is not None:
                on_result(result)
            return result

        self.installed.add(base_name(name))
        return traced

    def _on_sweep(self, result):
        cell_res = result[1]
        self._local.last_residual = float(cell_res.max())
        with self._lock:
            self.cells_evaluated += cell_res.size
            self.cells_active += int((cell_res > self.residual_tol).sum())

    def _on_solve(self, result):
        last = getattr(self._local, "last_residual", 0.0)
        with self._lock:
            self.final_residual_max = max(self.final_residual_max, last)

    @contextlib.contextmanager
    def install(self, config: aderfv.RunConfig):
        """Patch every target; yields the config with a wrapped system."""
        hooks = {"predictor.newton_sweep": self._on_sweep,
                 "predictor.predictor_solve": self._on_solve}
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))
            system = config.system
            wrapped = {f: self.wrap(f"systems.{f}", getattr(system, f))
                       for f in SYSTEM_FIELDS if getattr(system, f) is not None}
            yield dataclasses.replace(
                config, system=dataclasses.replace(system, **wrapped))
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path):
        """Spans as gzipped CSV, one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("id,parent,thread,name,start_ns,end_ns\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")

    def summary(self, n_threads: int) -> dict:
        """Per-layer metrics of every span recorded so far."""
        by_id = {s[0]: s for s in self.spans}
        child_ns = defaultdict(int)
        for sid, parent, thread, _, start, end in self.spans:
            enclosing = by_id.get(parent)
            if enclosing is not None and enclosing[2] == thread:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[base_name(name)] += end - start - child_ns[sid]
            total_ns[base_name(name)] += end - start
        steps = calls["scheme.step"]
        step_ns = total_ns["scheme.step"]
        if not steps:
            raise RuntimeError("no scheme.step span was recorded")
        out = {}
        for fn in LAYER_FUNCTIONS:
            n = sum(c for name, c in calls.items() if base_name(name) == fn)
            out[f"{fn}.calls_per_step"] = (n / steps, "count")
            out[f"{fn}.self_ms_per_step"] = (self_ns[fn] / steps / 1e6, "ms")
            out[f"{fn}.share"] = (self_ns[fn] / step_ns, "ratio")
        out["ck.matrix_c.time_gradients_per_step"] = (
            calls["nodes.time_derivative[ck]"] / steps, "count")
        out["predictor.sweeps_per_step"] = (
            calls["predictor.newton_sweep"] / calls["predictor.predictor_solve"],
            "count")
        out["predictor.active_cell_ratio"] = (
            self.cells_active / self.cells_evaluated, "ratio")
        out["predictor.final_residual_max"] = (self.final_residual_max, "norm")
        out["scheme.predict_wait_ms_per_step"] = (
            self_ns["scheme._predict"] / steps / 1e6, "ms")
        out["scheme.thread_busy_ratio"] = (
            total_ns["predictor.predictor_solve"]
            / (n_threads * total_ns["scheme._predict"]), "ratio")
        return out

    def uncalled(self) -> list:
        """Installed layer functions that recorded no call."""
        called = {base_name(s[3]) for s in self.spans}
        return sorted(self.installed - called)
