"""Layer tracing for the benchmark: wrappers around polydiff's public functions.

The wrappers are installed from outside the library.  Each one replaces a
public function in its defining module and at every polydiff module that
imported it by name, and each wrapped method on its class.  A call opens a
span only when it enters a layer from a different layer (or from the
benchmark itself); calls made inside the same layer run through, so a
layer's self time is the time spent in its outermost spans minus the time
covered by spans of other layers nested in them.

Every span (id, parent, operation, name, start, end) is kept in memory, six
floats per span in one flat array, because the cone_sampling batch alone
opens about 760 000; ``write_spans`` writes them out at the end.  Aggregates
(counts, self time, distinct-input sets) are kept alongside.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# layer -> [(module, qualified name)]; methods are "Class.method"
LAYERS: dict[str, list[tuple[str, str]]] = {
    "vectors": [
        ("polydiff.vectors", name)
        for name in ("as_vec", "zero_vec", "basis_vec", "vec_add", "vec_sub", "vec_scale")
    ],
    "poly.evaluate": [
        ("polydiff.poly", "ScalarPoly.evaluate"),
        ("polydiff.poly", "VectorPoly.evaluate"),
    ],
    "poly.arith": [
        ("polydiff.poly", f"{cls}.{meth}")
        for cls, meths in (
            ("ScalarPoly", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                            "__mul__", "__rmul__", "__pow__", "dilate")),
            ("VectorPoly", ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "dilate")),
        )
        for meth in meths
    ],
    "poly.compose": [
        ("polydiff.poly", "ScalarPoly.compose"),
        ("polydiff.poly", "VectorPoly.compose"),
    ],
    "diffcalc.numeric": [
        ("polydiff.diffcalc", name)
        for name in ("mixed_diff_at", "pure_diff_at", "newton_expand", "mixed_from_pure")
    ],
    "diffcalc.symbolic": [
        ("polydiff.diffcalc", name) for name in ("symbolic_mixed_diff", "symbolic_pure_diff")
    ],
    "tensor.polarize": [("polydiff.tensor", name) for name in ("polarize_signs", "polarize_mo")],
    "tensor.eval": [
        ("polydiff.tensor", name) for name in ("tensor_eval", "tensor_apply_powers", "tensor_to_poly")
    ],
    "combinatorics": [
        ("polydiff.combinatorics", name)
        for name in ("binomial", "multinomial", "stirling2", "stirling2_alternating_sum",
                     "stirling1_unsigned", "falling_factorial")
    ],
    "components": [
        ("polydiff.components", name)
        for name in ("vandermonde_inverse", "components_by_interpolation", "components_by_stirling",
                     "interpolation_component_polys", "stirling_component_polys",
                     "component_by_scaling", "tensor_by_scaling", "nonzero_point",
                     "degree_test", "degree_search")
    ],
    "positivity": [
        ("polydiff.positivity", name)
        for name in ("is_positive", "mixed_diff_nonneg_sample", "pure_diff_nonneg_check",
                     "counterexample_cubic", "affine_line_restriction", "affine_line_positive",
                     "counterexample_report")
    ],
    "kantorovich": [
        ("polydiff.kantorovich", name)
        for name in ("jordan_parts", "table_grid_points", "check_extension_hypotheses",
                     "cone_components", "homogeneous_extend", "kantorovich_extend",
                     "ConeFunction.__call__")
    ],
    "parser": [("polydiff.parser", name) for name in ("parse", "format_poly")],
    "cli": [
        ("polydiff.cli", name)
        for name in ("cmd_eval", "cmd_diff", "cmd_components", "cmd_polarize", "cmd_degree",
                     "cmd_positivity", "cmd_extend", "cmd_counterexample", "cmd_stirling",
                     "build_parser", "run", "main")
    ],
}

# functions whose activity is tracked so evaluations under them can be counted
MARKED = ("components.nonzero_point",)
# (metric, layer or marked function) pairs: poly.evaluate entries made under it
EVAL_SCOPES = (
    ("tensor.polarize.evals", "tensor.polarize"),
    ("components.nonzero_point.evals", "components.nonzero_point"),
    ("positivity.evals", "positivity"),
)
TERMS_OUT = ("poly.compose", "diffcalc.symbolic")


def _term_count(result) -> int:
    coords = getattr(result, "coords", None)
    if coords is None:
        return len(result.terms)
    return sum(len(c.terms) for c in coords)


class Tracer:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, span id, time covered by child spans]
        self.active: dict[str, int] = defaultdict(int)
        self.op_index = -1
        self.next_id = 0
        self.spans = array("d")  # id, parent (-1: none), op index, name index, start, end
        self.names: list[str] = []
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._eval_keys: set = set()
        self._cone_keys: set = set()
        self._alive: dict[int, object] = {}  # keeps ids in the key sets unique
        self._undo: list[tuple] = []

    # ----- recording -------------------------------------------------------

    def _on_evaluate(self, poly, point) -> None:
        self._alive[id(poly)] = poly
        self._eval_keys.add((id(poly), tuple(point)))
        for metric, scope in EVAL_SCOPES:
            if self.active[scope]:
                self.counts[metric] += 1

    def _on_cone_call(self, fn, point) -> None:
        self._alive[id(fn)] = fn
        self.counts["kantorovich.cone_calls"] += 1
        self._cone_keys.add((id(fn), tuple(point)))

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        stack = self.stack
        active = self.active
        fn_calls = self.fn_calls
        marked = name in MARKED
        is_eval = layer == "poly.evaluate"
        is_cone = name == "kantorovich.ConeFunction.__call__"
        count_terms = layer in TERMS_OUT
        clock = time.perf_counter
        spans = self.spans
        name_index = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            fn_calls[name] += 1
            if is_cone:
                tracer._on_cone_call(args[0], args[1])
            if stack and stack[-1][0] == layer:
                if not marked:
                    return fn(*args, **kwargs)
                active[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[name] -= 1
            if is_eval:
                tracer._on_evaluate(args[0], args[1])
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            active[layer] += 1
            if marked:
                active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] -= 1
                if marked:
                    active[name] -= 1
                duration = end - start
                tracer.self_s[layer] += duration - frame[2]
                tracer.layer_calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                spans.extend((span_id, parent, tracer.op_index, name_index, start, end))
            if count_terms:
                tracer.counts[f"{layer}.terms_out"] += _term_count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every listed function at its definition and import sites."""
        import importlib

        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name in {m for specs in LAYERS.values() for m, _ in specs}:
            importlib.import_module(mod_name)
        package = [m for key, m in sys.modules.items() if key == "polydiff" or key.startswith("polydiff.")]
        for layer, specs in LAYERS.items():
            for mod_name, qual in specs:
                module = sys.modules[mod_name]
                short = mod_name.split(".", 1)[1]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, original, self.wrap(original, layer, f"{short}.{qual}"))
                    continue
                original = getattr(module, qual)
                wrapper = self.wrap(original, layer, f"{short}.{qual}")
                for site in package:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._replace(site, attr, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ----- results ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // 6

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span, in the order the spans closed."""
        spans, names = self.spans, self.names
        with open(path, "w") as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(0, len(spans), 6):
                out.write(f"{spans[i]:.0f}\t{spans[i + 1]:.0f}\t{spans[i + 2]:.0f}\t{names[int(spans[i + 3])]}"
                          f"\t{spans[i + 4]!r}\t{spans[i + 5]!r}\n")

    def raw(self) -> dict:
        """Aggregates over every traced call."""
        return {
            "layer_calls": dict(self.layer_calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "eval_distinct": len(self._eval_keys),
            "cone_distinct": len(self._cone_keys),
            "fn_calls": dict(self.fn_calls),
        }


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from ``Tracer.raw()``."""
    calls = raw.get("layer_calls", {})
    self_s = raw.get("self_s", {})
    counts = raw.get("counts", {})

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in ("vectors", "poly.evaluate", "poly.arith", "poly.compose", "diffcalc.numeric",
                  "diffcalc.symbolic", "tensor.polarize", "combinatorics", "parser"):
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for layer in TERMS_OUT:
        out[f"{layer}.terms_out"] = (counts.get(f"{layer}.terms_out", 0), "count")
    for metric, _ in EVAL_SCOPES:
        out[metric] = (counts.get(metric, 0), "count")
    out["poly.evaluate.distinct_ratio"] = (
        ratio(raw.get("eval_distinct", 0), calls.get("poly.evaluate", 0)), "ratio")
    cone_calls = counts.get("kantorovich.cone_calls", 0)
    out["kantorovich.cone_calls"] = (cone_calls, "count")
    out["kantorovich.cone_distinct_ratio"] = (ratio(raw.get("cone_distinct", 0), cone_calls), "ratio")
    return out
