"""Per-layer timing and counts, taken from outside the program.

A :class:`Tracer` wraps curvespec's public functions wherever their names
are bound (the defining module, every module that imported the name, the
package namespace and module-level dispatch tables) and wraps the
``CohClass`` and ``Spectrum`` methods on their classes.  Each timed wrapper
keeps calls, inclusive time and self time; self time excludes the wrapped
callees.  Counted wrappers only count calls, so the cheap, very frequent
helpers stay cheap under tracing.  The formula wrappers also add up
d * P and d * T over their inputs (see gen.graph_steps).

Untraced runs install no wrappers, so end-to-end numbers carry no
tracing cost.
"""

from __future__ import annotations

import time

import gen
import harness


def _graph_steps(graph, *args, **kwargs):
    return gen.graph_steps(*gen.arrangement_point_types(graph))


def _power_steps(d, m, point_mults):
    return gen.graph_steps(d * m, list(point_mults))


# (module, function, stat name, timed, steps hook)
FUNCTIONS = (
    ("cli", "main", "cli.main", True, None),
    ("arrangement", "load_arrangement", "arrangement.load_arrangement", True, None),
    ("arrangement", "validate", "arrangement.validate", True, None),
    ("arrangement", "derived", "arrangement.derived", True, None),
    ("randomgraphs", "generate_graph", "randomgraphs.generate_graph", True, None),
    ("randomgraphs", "insert_snc_node", "randomgraphs.insert", True, None),
    ("randomgraphs", "insert_smooth_point", "randomgraphs.insert", True, None),
    ("formulas", "spectrum_general", "formulas.spectrum_general", True, _graph_steps),
    ("formulas", "spectrum_reduced", "formulas.spectrum_reduced", True, _graph_steps),
    ("formulas", "spectrum_smooth_components", "formulas.spectrum_smooth_components", True, _graph_steps),
    ("formulas", "spectrum_hyperplane", "formulas.spectrum_hyperplane", True, _graph_steps),
    ("formulas", "spectrum_irreducible_power", "formulas.spectrum_irreducible_power", True, _power_steps),
    ("binomial", "binom", "binomial.binom", False, None),
    ("binomial", "ceil_div", "binomial.ceil_div", False, None),
    ("riemann_roch", "spectrum_via_riemann_roch", "riemann_roch.spectrum_via_riemann_roch", True, None),
    ("riemann_roch", "chern_tangent", "riemann_roch.chern_tangent", True, None),
    ("riemann_roch", "chern_cotangent_log", "riemann_roch.chern_cotangent_log", True, None),
    ("riemann_roch", "todd", "riemann_roch.todd", True, None),
    ("riemann_roch", "wedge_ch", "riemann_roch.wedge_ch", True, None),
    ("riemann_roch", "line_bundle_ch", "riemann_roch.line_bundle_ch", True, None),
    ("spectrum", "format_spectrum", "spectrum.format_spectrum", True, None),
    ("lines", "load_lines", "lines.load_lines", True, None),
    ("lines", "normalize_form", "lines.normalize_form", True, None),
    ("lines", "incidence_graph", "lines.incidence_graph", True, None),
)

# (module, class, method, stat name, timed)
METHODS = (
    ("cohomology", "CohClass", "__mul__", "cohomology.mul", True),
    ("cohomology", "CohClass", "__add__", "cohomology.add", True),
    ("cohomology", "CohClass", "inverse", "cohomology.inverse", True),
    ("spectrum", "Spectrum", "__init__", "spectrum.construct", True),
    ("spectrum", "Spectrum", "__eq__", "spectrum.eq", False),
)


class Tracer:
    """Aggregated spans of one traced run; install() and uninstall() bracket
    the calls to measure."""

    def __init__(self):
        # stat name -> [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for _, _, name, _, _ in FUNCTIONS}
        self.stats.update({name: [0, 0.0, 0.0] for _, _, _, name, _ in METHODS})
        self.point_steps = 0
        self.type_steps = 0
        self._stack: list[float] = []  # callee seconds of each open span
        self._undo: list = []

    def _timed(self, fn, stat, steps):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if steps is not None:
                hook_start = clock()
                p, t = steps(*args, **kwargs)
                self.point_steps += p
                self.type_steps += t
                if stack:  # the count is the benchmark's work, not the caller's
                    stack[-1] += clock() - hook_start
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    @staticmethod
    def _counted(fn, stat):
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = harness.curvespec_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module, attr, name, timed, steps in FUNCTIONS:
            original = getattr(by_name[module], attr)
            stat = self.stats[name]
            wrapper = self._timed(original, stat, steps) if timed else self._counted(original, stat)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper, setattr)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._rebind(value, k, wrapper, dict.__setitem__)
        for module, cls_name, method, name, timed in METHODS:
            cls = getattr(by_name[module], cls_name)
            original = cls.__dict__[method]
            stat = self.stats[name]
            wrapper = self._timed(original, stat, None) if timed else self._counted(original, stat)
            self._rebind(cls, method, wrapper, setattr)

    def _rebind(self, owner, key, wrapper, store) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._undo.append((owner, key, original, store))
        store(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original, store = self._undo.pop()
            store(owner, key, original)

    def metrics(self, units: int) -> dict[str, float]:
        """Per-unit calls, inclusive ms and self ms of every stat, plus the
        step counts."""
        out: dict[str, float] = {}
        for name, (calls, inclusive, own) in self.stats.items():
            out[f"{name}.calls"] = calls / units
            out[f"{name}.ms"] = inclusive * 1000 / units
            out[f"{name}.self_ms"] = own * 1000 / units
        out["formulas.point_steps"] = self.point_steps / units
        out["formulas.type_steps"] = self.type_steps / units
        out["formulas.type_share"] = self.type_steps / self.point_steps if self.point_steps else 0.0
        return out
