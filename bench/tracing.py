"""Per-layer tracing of fpt from outside the library.

The tracer replaces public functions of fpt modules with timing wrappers
for the length of a traced run and puts the originals back afterwards.
Because modules import each other's functions by name (solver and moments
both hold their own `reach_vector`), every module attribute bound to the
original function object is patched, not just the defining one.  A name
that no longer resolves is reported as absent, so the benchmark keeps
working when a refactor deletes or renames a function.

A class name traces its constructor; `Class.method` traces that method.
Inclusive time counts child spans; self time is inclusive time minus the
time of the traced calls nested inside it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

PACKAGE = "fpt"
LAYERS = (
    "cli.main",
    "markov.parse_matrix",
    "markov.reach_vector",
    "markov.first_passage_table",
    "solver.build_system",
    "solver.solve_all_for_target",
    "exact.RationalFunction",
    "exact.poly_gcd",
    "exact.solve_linear_system",
    "exact.RationalFunction.series",
    "exact.RationalFunction.render",
    "exact.format_rational",
    "moments.moment_report",
    "moments.rth_passage_pgf",
    "moments.rth_passage_pmf",
)

# layers whose calls are counted as useful only once per distinct
# (matrix, target) within one operation
DEDUPED = ("solver.solve_all_for_target", "markov.reach_vector")


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    absent: bool = False


def _bits(x: Any) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Install with `install()`, bracket each operation with `end_op()`,
    and always `uninstall()` (it is safe to call twice)."""

    def __init__(self, layers=LAYERS):
        self.stats: Dict[str, LayerStats] = {name: LayerStats() for name in layers}
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.ops = 0
        # poly_gcd counters
        self.degree_cancelled = 0
        self.max_input_degree = -1
        self.max_coeff_bits = 0
        # dedup counters: distinct (matrix, target) keys in the current op,
        # and their per-op sum over the run
        self._keys: Dict[str, Set[Any]] = {name: set() for name in DEDUPED
                                           if name in self.stats}
        self.distinct: Dict[str, int] = dict.fromkeys(self._keys, 0)

    # --- patching -----------------------------------------------------------

    def _resolve(self, name: str) -> Optional[Tuple[Any, str, Any]]:
        """(owner, attribute, original) for a layer name, or None if absent.
        The owner is the class for a method or constructor, else the
        defining module."""
        modname, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            obj = getattr(owner, path[-1])
        except (ImportError, AttributeError, IndexError):
            return None
        if inspect.isclass(obj):
            return obj, "__init__", obj.__init__
        if not callable(obj):
            return None
        return owner, path[-1], obj

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, stat in self.stats.items():
            found = self._resolve(name)
            if found is None:
                stat.absent = True
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, stat)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, name: str, original: Callable, stat: LayerStats) -> Callable:
        stack = self._stack
        observe = self._observer(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                t1 = perf_counter()
                try:
                    observe(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed signature loses the counter, not the run
                if stack:
                    # counting is tracer overhead: keep it out of self times
                    stack[-1] += perf_counter() - t1
            return result

        return wrapper

    # --- counters -------------------------------------------------------------

    def _observer(self, name: str) -> Optional[Callable]:
        if name == "exact.poly_gcd":
            return self._observe_gcd
        if name in self._keys:
            keys = self._keys[name]

            def observe(args, result):
                matrix, target = args[0], args[1]
                keys.add((getattr(matrix, "rows", id(matrix)), target))

            return observe
        return None

    def _observe_gcd(self, args, result) -> None:
        a, b = args[0], args[1]
        self.degree_cancelled += max(result.degree, 0)
        self.max_input_degree = max(self.max_input_degree, a.degree, b.degree)
        for p in (a, b):
            for c in p.coeffs:
                bits = _bits(c)
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def end_op(self) -> None:
        self.ops += 1
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    # --- report -------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer values, normalised per traced operation: name ->
        (value, unit).  Absent layers read 0; see `absent_layers()`."""
        ops = max(self.ops, 1)
        out: Dict[str, Tuple[float, str]] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls / ops, "calls/op")
            out[f"{name}.total_s"] = (st.total / ops, "s/op")
            out[f"{name}.self_s"] = (st.self_time / ops, "s/op")
        out["exact.poly_gcd.degree_cancelled"] = (self.degree_cancelled / ops, "degree/op")
        out["exact.poly_gcd.max_input_degree"] = (max(self.max_input_degree, 0), "degree")
        out["exact.poly_gcd.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        for name in self._keys:
            calls = self.stats[name].calls
            out[f"{name}.useful_ratio"] = (self.distinct[name] / calls if calls else 0.0,
                                           "ratio")
        return out

    def absent_layers(self) -> List[str]:
        return [name for name, st in self.stats.items() if st.absent]
