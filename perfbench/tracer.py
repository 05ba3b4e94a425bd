"""In-memory span tracer for greenlink's public layer functions.

Tracer.install() wraps each target at every name a greenlink module binds
it under (``optimize.efficiency``, ``cli.maximize_constrained``, the
package's re-exported ``greenlink.simulate`` ...), and the success models'
methods on their classes. Each call records one span: name, parent span,
invocation id (the root span of its call tree), start and end in ns.
uninstall() puts every original back. Spans stay in memory until save().
"""

import functools
import importlib
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# (module, attribute, span name): module-level functions, wrapped at every binding.
FUNCTIONS = [
    ("greenlink.cli", "main", "cli.main"),
    ("greenlink.optimize", "maximize_constrained", "optimize.maximize_constrained"),
    ("greenlink.optimize", "maximize_unconstrained", "optimize.maximize_unconstrained"),
    ("greenlink.optimize", "qos_threshold", "optimize.qos_threshold"),
    ("greenlink.efficiency", "efficiency", "efficiency.efficiency"),
    ("greenlink.efficiency", "stationarity_residual", "efficiency.stationarity_residual"),
    ("greenlink.queueing", "packet_loss", "queueing.packet_loss"),
    ("greenlink.simulate", "simulate", "simulate.simulate"),
]
# (module, class, method, span name): methods called through the model objects.
METHODS = [
    ("greenlink.success", "ExpUnknownChannel", "success_probability", "success.f.exp"),
    ("greenlink.success", "QKnownChannel", "success_probability", "success.f.qfunc"),
    ("greenlink.success", "ExpUnknownChannel", "success_derivative", "success.df.exp"),
    ("greenlink.success", "QKnownChannel", "success_derivative", "success.df.qfunc"),
]

_MARK = "__perfbench_traced__"


def _greenlink_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "greenlink" or name.startswith("greenlink."))]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.invocation = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        parent, name, invocation = self.parent, self.name, self.invocation
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            invocation.append(stack[0] if stack else sid)
            name.append(name_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, _, _ in FUNCTIONS:
            importlib.import_module(module_name)
        modules = _greenlink_modules()
        for module_name, attr, span in FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(fn, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self._wrap(cls.__dict__[method], span))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftovers = [f"{m.__name__}.{k}" for m in _greenlink_modules()
                     for k, v in vars(m).items() if getattr(v, _MARK, False)]
        for module_name, cls_name, method, _ in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            if getattr(cls.__dict__[method], _MARK, False):
                leftovers.append(f"{cls_name}.{method}")
        if leftovers:
            raise RuntimeError(f"tracer left wrappers behind: {leftovers}")

    # -- analysis -----------------------------------------------------------

    def spans(self) -> Dict[str, np.ndarray]:
        """Span arrays plus duration and self time (duration minus direct children)."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int64),
            "invocation": np.frombuffer(self.invocation, dtype=np.int64),
            "start": start,
            "end": end,
            "dur_ns": dur,
            "self_ns": dur - children,
        }

    def select(self, span: str) -> np.ndarray:
        """Boolean mask of the spans called `span` (several wrappers may share a name)."""
        ids = [i for i, n in enumerate(self.names) if n == span]
        return np.isin(np.frombuffer(self.name, dtype=np.int64), ids)

    def under(self, span: str) -> np.ndarray:
        """Mask of spans with an ancestor called `span`."""
        marks = set(i for i, n in enumerate(self.names) if n == span)
        inside = [False] * len(self.parent)
        names = self.name.tolist()
        for i, p in enumerate(self.parent.tolist()):
            inside[i] = p >= 0 and (inside[p] or names[p] in marks)
        return np.array(inside, dtype=bool)

    def save(self, path) -> None:
        """Write every span, with its self time, to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
