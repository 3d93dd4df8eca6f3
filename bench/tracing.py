"""Per-layer tracing from outside the package.

`Tracer.install` replaces every binding of the public functions of the
traced modules (and of a few re-imported third-party functions) with a
wrapper that records a span per call.  A function imported into another
module by name has one binding per module, so each module's globals are
patched; afterwards `Tracer.install` scans every loaded gkpsq module and
fails if any of them still holds an original.

Self time is a span's duration minus the durations of the spans it
directly contains.  Spans stay in memory; `Tracer.metrics` folds them into
the flat `<module>.<function>.<stat>` names listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "fock", "operators", "analytic", "estimator")
# Third-party functions the package re-imports by name; traced at their
# binding in the named module.
EXTERNAL = {"estimator": ("minimize",)}
HIT_TOLERANCE = 1e-9


class UnwrappedBindingError(RuntimeError):
    """A gkpsq module still references a function that should be traced."""


def _channel_kind(bound) -> str:
    ch = bound.arguments["ch"]
    if ch.n_thermal > 0.0:
        return "composed" if ch.eta < 1.0 else "noise"
    return "loss"


def _estimate_kind(bound) -> str:
    return "plain" if bound.arguments.get("bootstrap") is None else "bootstrap"


# Calls of these functions are split by a property of their arguments.
VARIANTS = {
    "operators.apply_channel": _channel_kind,
    "estimator.estimate_xi": _estimate_kind,
}


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []  # [start, time covered by child spans]
        self._originals: dict[int, object] = {}
        self._starts: list[list[float]] = []  # minimize results per open optimize_xi
        self.minimize_starts = 0
        self.minimize_hits = 0
        self.absent: list[str] = []

    def stat(self, name: str) -> _Stat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = _Stat()
        return found

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        classify = VARIANTS.get(name)
        on_exit = getattr(self, "_after_" + name.replace(".", "_"), None)
        needs_args = classify is not None or on_exit is not None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if needs_args else None
            if bound is not None:
                bound.apply_defaults()
            key = f"{name}.{classify(bound)}" if classify else name
            if name == "estimator.optimize_xi":
                self._starts.append([])
            frame = [clock(), 0.0]
            stack.append(frame)
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stat = self.stat(key)
                stat.calls += 1
                stat.self_s += duration - frame[1]
                stat.errors += failed
                if on_exit is not None:
                    on_exit(stat, bound, None if failed else result)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every gkpsq module, then verify."""
        import gkpsq

        modules = {m: importlib.import_module(f"gkpsq.{m}") for m in LAYERS}
        targets: dict[int, tuple[str, object]] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    targets[id(value)] = (f"{short}.{attr}", value)
            for attr in EXTERNAL.get(short, ()):
                if hasattr(module, attr):
                    value = getattr(module, attr)
                    targets[id(value)] = (f"{short}.{attr}", value)
                else:
                    self.absent.append(f"{short}.{attr}")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        self._originals = {key: fn for key, (_, fn) in targets.items()}
        for module in self._package_modules(gkpsq):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is self._originals[id(value)]:
                    setattr(module, attr, wrappers[id(value)])
        leftovers = self.unwrapped_bindings()
        if leftovers:
            raise UnwrappedBindingError("unwrapped originals: " + ", ".join(leftovers))

    @staticmethod
    def _package_modules(package):
        prefix = package.__name__ + "."
        return [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]

    def unwrapped_bindings(self) -> list[str]:
        """Places in gkpsq modules that still reference an original function.

        Looks at module globals, module-level containers and the default
        arguments of module functions, which is where a captured reference
        would bypass the patched globals.
        """
        import gkpsq

        originals = self._originals

        def holds(value) -> bool:
            if isinstance(value, dict):
                return any(holds(v) for v in value.values())
            if isinstance(value, (list, tuple, set, frozenset)):
                return any(holds(v) for v in value)
            return id(value) in originals and value is originals[id(value)]

        found = []
        for module in self._package_modules(gkpsq):
            for attr, value in vars(module).items():
                if holds(value):
                    found.append(f"{module.__name__}.{attr}")
                elif inspect.isfunction(value):
                    inner = getattr(value, "__wrapped__", value)
                    defaults = (inner.__defaults__ or ()) + tuple((inner.__kwdefaults__ or {}).values())
                    if holds(defaults):
                        found.append(f"{module.__name__}.{attr} (default argument)")
        return found

    # -- computed counts ----------------------------------------------------

    def _after_fock_generalized_displacement(self, stat, bound, result):
        from gkpsq import fock

        args = bound.arguments
        plan = getattr(fock, "planned_build_dim", None)
        if plan is not None and "oversample" in args:
            plan = getattr(plan, "__wrapped__", plan)  # not a traced call
            build = plan(args["dim"], args["oversample"])
        else:
            build = args["dim"]
        stat.add("eigh_dim3", float(build) ** 3)

    def _after_fock_hermitian_eigensolve(self, stat, bound, result):
        stat.add("dim3", float(len(bound.arguments["matrix"])) ** 3)

    def _after_estimator_load_samples(self, stat, bound, result):
        if result is not None:
            stat.add("rows", float(sum(values.size for _, values in result.records)))

    def _after_estimator_minimize(self, stat, bound, result):
        if result is None:
            return
        stat.add("nfev", float(result.nfev))
        if self._starts:
            self._starts[-1].append(float(result.fun))

    def _after_estimator_optimize_xi(self, stat, bound, result):
        ends = self._starts.pop()
        if ends:
            best = min(ends)
            self.minimize_starts += len(ends)
            self.minimize_hits += sum(1 for f in ends if f <= best + HIT_TOLERANCE)

    # -- report -------------------------------------------------------------

    @staticmethod
    def per_call_cost(calls: int = 20000) -> float:
        """Seconds a wrapper without argument binding adds to one call.

        The measured traced-minus-untraced difference of one pass pair is
        dominated by machine noise; this times the wrapper on a no-op so the
        overhead can also be estimated as calls x cost.
        """

        def noop():
            return None

        wrapped = Tracer()._wrap("calibration.noop", noop)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        return max(clock() - start - bare, 0.0) / calls

    def metrics(self, names) -> dict[str, float]:
        """Values for the requested `<function>.<stat>` names (0 if never called)."""
        out = {}
        for name in names:
            func, _, stat_name = name.rpartition(".")
            if name == "estimator.minimize.hit_ratio":
                out[name] = self.minimize_hits / self.minimize_starts if self.minimize_starts else 0.0
                continue
            stat = self.stats.get(func)
            if stat is None:
                out[name] = 0.0
            elif stat_name in ("calls", "errors"):
                out[name] = float(getattr(stat, stat_name))
            elif stat_name == "self_s":
                out[name] = stat.self_s
            else:
                out[name] = stat.extra.get(stat_name, 0.0)
        return out

    def table(self) -> dict[str, dict]:
        """Every traced function that ran, for the full report."""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "errors": s.errors, **s.extra}
            for name, s in sorted(self.stats.items())
        }
