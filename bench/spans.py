"""Span tracing of the geomwork layers from outside the package.

Each traced function is replaced, for the length of a traced run, at the
module attribute through which its callers look it up (``from .x import f``
binds ``f`` in the importing module, so that binding is the one wrapped).
A span records its id, parent id, layer, start, end and thread. A span's
parent is the innermost open span on its own thread; a span that opens on a
pool thread with nothing open there takes the innermost open span of the
thread that runs the command, which is the one that submitted the work.
Spans stay in memory until ``write``.

A layer's self time is its spans' durations minus the part of each span's
interval that its child spans cover, on any thread.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter

# layer -> (module, attribute) bindings through which the package calls it.
TARGETS = {
    "operators.model": [("cli", "tls_model"), ("cli", "ssh_model"), ("ssh", "ssh_model")],
    "operators.hamiltonian": [("operators", "tls_hamiltonian"), ("ssh", "ssh_hamiltonian")],
    "steadystate.dissipator": [("steadystate", "dissipator_superop"),
                               ("dynamics", "dissipator_superop")],
    "steadystate.assembly": [("steadystate", "liouvillian_matrix"),
                             ("steadystate", "hamiltonian_superop"),
                             ("dynamics", "hamiltonian_superop")],
    "steadystate.solve": [("geometry", "steady_state"), ("dynamics", "steady_state"),
                          ("cli", "steady_state")],
    "steadystate.closed_form": [("cli", "tls_steady_closed_form")],
    "geometry.one_form": [("geometry", "work_one_form"), ("cycles", "work_one_form")],
    "geometry.curvature": [("geometry", "curvature_fd"), ("cycles", "curvature_fd"),
                           ("ssh", "curvature_fd"), ("cli", "curvature_fd")],
    "geometry.closed_form": [("geometry", "curvature_closed_form_tls"),
                             ("cli", "curvature_closed_form_tls")],
    "geometry.field": [("cli", "curvature_field")],
    "cycles.line": [("cycles", "line_integral_work"), ("cli", "line_integral_work"),
                    ("dynamics", "line_integral_work")],
    "cycles.flux": [("cycles", "flux_work")],
    "dynamics.evolve": [("dynamics", "evolve"), ("cli", "evolve")],
    "dynamics.work": [("dynamics", "dynamic_work")],
    "dynamics.convergence": [("cli", "quasistatic_convergence")],
    "ssh.curvature": [("cli", "ssh_curvature")],
}
CLI_LAYER = "cli"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.missing = []
        self._ids = count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, t0, t1, threading.get_ident()))

    def _wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target binding that exists; record the ones that do not."""
        wrappers = {}
        for layer, bindings in TARGETS.items():
            for module_name, attr in bindings:
                module = getattr(self.package, module_name, None)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrapper(layer, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-layer calls and self seconds, and the library self time inside
        ``cli`` spans (for the mean number of busy threads)."""
        children = defaultdict(list)
        for sid, parent, _layer, t0, t1, _tid in self.spans:
            children[parent].append((t0, t1))
        calls, self_s = Counter(), defaultdict(float)
        cli_time = library_self = 0.0
        for sid, _parent, layer, t0, t1, _tid in self.spans:
            own = (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            calls[layer] += 1
            self_s[layer] += own
            if layer == CLI_LAYER:
                cli_time += t1 - t0
            else:
                library_self += own
        return {"calls": calls, "self_s": self_s, "cli_time": cli_time,
                "library_self": library_self}

    def write(self, path) -> None:
        """One span a line: id,parent,layer,start,end,thread (seconds)."""
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start_s,end_s,thread\n")
            for sid, parent, layer, t0, t1, tid in self.spans:
                fh.write(f"{sid},{parent or ''},{layer},{t0:.9f},{t1:.9f},{tid}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
