"""Outside-in layer tracer for omegaflow.

The tracer wraps, from the benchmark's side, every public function of each
layer module (the names in its ``__all__``) and the constructor and public
methods of each public class.  A function that another omegaflow module
imported by name (``from .transport import w2_exact``) is rebound in that
module too, so a call through any namespace is seen.  No file of the
program is changed: :meth:`Tracer.install` patches attributes in memory and
:meth:`Tracer.uninstall` puts the originals back.

Each span records calls, total (inclusive) time and self time, which is the
total minus the time of wrapped calls made inside it.  Per layer, the tracer
sums calls and self time over the layer's spans, and counts as the layer's
total time only entries from another layer, so nested calls within one
layer are not counted twice.

Names: ``<layer>.<function>`` for functions, ``<layer>.<Class>`` for a
constructor and ``<layer>.<Class>.<method>`` for a method.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("measures", "transport", "moduli", "energies", "jko", "verify", "cli")
PACKAGE = "omegaflow"

# energy-term value methods; inside a proximal step each objective
# evaluation calls every term the energy has once
ENERGY_TERMS = ("energies.Energy.potential_value",
                "energies.Energy.interaction_value",
                "energies.Energy.internal_value")
STEP_SPAN = "jko.proximal_step"


class Span:
    __slots__ = ("layer", "calls", "total", "self_time", "calls_in_step")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.calls_in_step = 0


class Tracer:
    """In-memory spans around the public entry points of every layer."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.layer_total = dict.fromkeys(LAYERS, 0.0)
        self.inner_iters = 0
        self.residual_flags = 0
        self._stack: list[list] = []   # [layer, child_time] per open span
        self._step_depth = 0
        self._patches: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        package_modules = [m for n, m in sorted(sys.modules.items())
                           if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    for other in package_modules:
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, value in list(vars(obj).items()):
                        if not inspect.isfunction(value):
                            continue
                        if attr == "__init__":
                            span = f"{layer}.{name}"
                        elif not attr.startswith("_"):
                            span = f"{layer}.{name}.{attr}"
                        else:
                            continue
                        self._patch(obj, attr, self._wrap(span, layer, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, layer: str, fn):
        span = self.spans.setdefault(name, Span(layer))
        stack = self._stack
        layer_total = self.layer_total
        is_step = name == STEP_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            if self._step_depth:
                span.calls_in_step += 1
            if is_step:
                self._step_depth += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                if is_step:
                    self._step_depth -= 1
                span.calls += 1
                span.total += dt
                span.self_time += dt - frame[1]
                if outer:
                    layer_total[layer] += dt
            if is_step and isinstance(result, tuple) and len(result) == 2 \
                    and isinstance(result[1], dict):
                info = result[1]
                self.inner_iters += int(info.get("inner_iters", 0))
                self.residual_flags += bool(info.get("residual_flag", False))
            return result

        return wrapper

    # -- reading --------------------------------------------------------------

    def span(self, name: str) -> Span:
        """The named span; a name the program no longer has reads as zero."""
        return self.spans.get(name) or Span(name.split(".", 1)[0])

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for s in self.spans.values() if s.layer == layer)

    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for s in self.spans.values() if s.layer == layer)

    def counts(self) -> dict:
        """Every exact count the trace holds; equal inputs give equal counts."""
        out = {f"{n}.calls": s.calls for n, s in sorted(self.spans.items())}
        out.update({f"{n}.calls_in_step": s.calls_in_step
                    for n, s in sorted(self.spans.items())})
        out["jko.inner_iters"] = self.inner_iters
        out["jko.residual_flags"] = self.residual_flags
        return out

    def objective_evals(self) -> int:
        """Energy evaluations inside proximal steps (the most-called term)."""
        return max(self.span(n).calls_in_step for n in ENERGY_TERMS)

    def dominant_layer(self) -> str:
        return max(LAYERS, key=self.layer_self)
