"""Per-layer spans and counters, recorded from outside the program.

The layers are couplersim's modules.  Several modules import names from
others (``coupler`` takes ``expm_hermitian``/``expm_general``, ``analysis``
takes ``exact_propagator``, ``cli`` takes ``gate_time``/``schmidt``), so
wrapping only the defining module would miss calls.  While a ``Tracer`` is
entered it replaces every function global of every loaded couplersim module
whose ``__module__`` is a layer, and it puts the originals back on exit.

A span is opened only where a call crosses into a different layer; calls
inside one layer run unwrapped work under the same span.  Methods of the
package's classes are not module globals, so their time counts toward the
span that calls them.  A layer's self time is its spans' time minus the time
of their child spans, which are always in another layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

from checks import hit_runs

PACKAGE = "couplersim"
LAYERS = ("cli", "analysis", "gates", "coupler", "engine", "fock")
_LAYER_OF = {f"{PACKAGE}.{name}": name for name in LAYERS}

_FOCK_BUILDERS = {"annihilation", "creation", "number_operator", "total_number", "identity"}
_EXPM = {"expm_hermitian", "expm_general"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced pass; a context manager that patches."""

    def __init__(self) -> None:
        self.op: int | None = None
        # Finished spans: (span id, parent span id, op id, name, start, end).
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [layer, span id, child time, fock calls at entry]
        self._saved: list[tuple] = []
        self._near_singularity = sys.modules[f"{PACKAGE}.coupler"].NearSingularity

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ in _LAYER_OF:
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, _LAYER_OF[obj.__module__])
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][1] if stack else None
            frame = [layer, span_id, 0.0, self.calls["fock"]]
            stack.append(frame)
            self.calls[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._near_singularity:
                if layer == "coupler":
                    self.counters["coupler.refusals"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[layer] += end - start - frame[2]
                if stack:
                    stack[-1][2] += end - start
                self.spans.append((span_id, parent, self.op, name, start, end))
            self._count(layer, fn.__name__, frame, args, kwargs, result)
            return result

        return traced

    def _count(self, layer, fname, frame, args, kwargs, result) -> None:
        """Work counts computed from a boundary call's arguments and result."""
        c = self.counters
        if layer == "fock" and fname in _FOCK_BUILDERS:
            c["fock.elements_built"] += result.entries.size
        elif layer == "engine" and fname in _EXPM:
            c["engine.n3_sum"] += len(_arg(args, kwargs, 0, "a" if fname == "expm_general" else "h")) ** 3
        elif layer == "coupler" and fname == "verify_factorization":
            n_outer = _arg(args, kwargs, 0, "params").n_outer
            c["coupler.useful_states"] += sum(math.comb(k + n_outer, n_outer) for k, _ in result.block_distances)
            c["coupler.dense_states"] += _arg(args, kwargs, 1, "layout").dim
        elif layer == "analysis" and fname == "scan_times":
            t_min = _arg(args, kwargs, 2, "t_min")
            t_max = _arg(args, kwargs, 3, "t_max")
            steps = _arg(args, kwargs, 4, "steps")
            c["analysis.scan_points"] += steps
            c["analysis.scan_hits"] += len(result)
            step = (t_max - t_min) / (steps - 1)
            c["analysis.gate_times_found"] += len(hit_runs([h.t for h in result], t_min, step))
            c["analysis.scan_fock_calls"] += self.calls["fock"] - frame[3]
