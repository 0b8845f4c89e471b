"""In-memory span tracer for the benchmark's traced runs.

The tracer lives in the benchmark, not in the package: it replaces every
module attribute of ``flatcusps`` that is bound to a traced function with
a wrapper, so each caller's own lookup (``flatcusps.density.embed_group``,
``flatcusps.lorentz.char_poly``, ``Matrix.__mul__`` through the class)
lands on the wrapper. A span is one call: name, the item it belongs to,
its parent span, and four clock readings. ``enter``/``leave`` bracket the
wrapper's whole cost and ``start``/``end`` bracket the wrapped call, so a
parent's self time excludes both its children and the tracer's own work
around them.
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric prefix, module, attribute); attribute "Matrix.x" names a method.
TRACED = (
    ("exactlin.matmul", "exactlin", "Matrix.__mul__"),
    ("exactlin.inverse", "exactlin", "Matrix.inverse"),
    ("exactlin.det", "exactlin", "Matrix.det"),
    ("exactlin.char_poly", "exactlin", "char_poly"),
    ("exactlin.ldl_signature", "exactlin", "ldl_signature"),
    ("exactlin.nilpotent_exp", "exactlin", "nilpotent_exp"),
    ("bieberbach.catalog", "bieberbach", "catalog"),
    ("bieberbach.holonomy", "bieberbach", "holonomy"),
    ("bieberbach.translation_lattice", "bieberbach", "translation_lattice"),
    ("bieberbach.is_torsion_free", "bieberbach", "is_torsion_free"),
    ("bieberbach.theta_average", "bieberbach", "theta_average"),
    ("shapes.rationalize", "shapes", "rationalize"),
    ("shapes.shape_distance", "shapes", "shape_distance"),
    ("lorentz.embed_group", "lorentz", "embed_group"),
    ("lorentz.embed_translation", "lorentz", "embed_translation"),
    ("lorentz.verify_embedding", "lorentz", "verify_embedding"),
    ("lorentz.integralize", "lorentz", "integralize"),
    ("selberg.good_prime", "selberg", "good_prime"),
    ("selberg.verify_certificate", "selberg", "verify_certificate"),
    ("density.run_experiment", "density", "run_experiment"),
    ("density.sample_targets", "density", "sample_targets"),
)

MODULES = ("exactlin", "bieberbach", "shapes", "lorentz", "selberg", "density")

# Derived per-layer metrics and their units; "count", "bits" and "ratio"
# metrics must repeat exactly between two traced runs of one seed.
DERIVED_UNITS = {
    "exactlin.matmul.scalar_mults": "count",
    "exactlin.matmul.max_entry_bits": "bits",
    "exactlin.char_poly.rational_frac": "ratio",
    "shapes.rationalize.retry_ratio": "ratio",
    "lorentz.integralize.scale_gt1_frac": "ratio",
    "selberg.torsion_polynomials.hit_ratio": "ratio",
}
EXACT_UNITS = ("count", "bits", "ratio")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    units["trace.overhead_ratio"] = "x"
    return units


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, package):
        self.package = package
        self.item = -1  # -1 marks set-up work
        self.names = [name for name, _, _ in TRACED]
        self.name_id = array("i")
        self.item_id = array("i")
        self.parent = array("i")
        self.enter = array("q")
        self.start = array("q")
        self.end = array("q")
        self.leave = array("q")
        self.raised = [0] * len(TRACED)
        self.scalar_mults = 0
        self.max_entry_bits = 0
        self.rational_char_polys = 0
        self.scaled_integralizations = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [
            m for n, m in list(sys.modules.items())
            if n == pkg or n.startswith(pkg + ".")
        ]
        matrix = self.package.exactlin.Matrix
        after = {
            "exactlin.matmul": self._after_matmul,
            "exactlin.char_poly": self._after_char_poly,
            "lorentz.integralize": self._after_integralize,
        }
        for nid, (name, module, attr) in enumerate(TRACED):
            if attr.startswith("Matrix."):
                method = attr.split(".", 1)[1]
                original = matrix.__dict__[method]
                wrapper = self._wrap(nid, original, after.get(name))
                if method == "__mul__":
                    wrapper = self._matrix_only(original, wrapper, matrix)
                self._patch(matrix, method, wrapper)
                continue
            original = getattr(getattr(self.package, module), attr)
            wrapper = self._wrap(nid, original, after.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    @staticmethod
    def _matrix_only(original, traced, matrix):
        # Only matrix-by-matrix products are matmul spans; scalar products
        # stay in the caller's self time.
        def mul(self_, other):
            if isinstance(other, matrix):
                return traced(self_, other)
            return original(self_, other)

        return mul

    def _wrap(self, nid: int, fn, after):
        clock = time.perf_counter_ns
        stack = self._stack
        cols = (self.name_id, self.item_id, self.parent)
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        raised = self.raised

        def wrapper(*args, **kwargs):
            t_enter = clock()
            idx = len(enter)
            cols[0].append(nid)
            cols[1].append(self.item)
            cols[2].append(stack[-1] if stack else -1)
            enter.append(t_enter)
            start.append(0)
            end.append(0)
            leave.append(0)
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if not ok:
                    raised[nid] += 1
                    leave[idx] = t1
            if after is not None:
                after(args, result)
            leave[idx] = clock()
            return result

        return wrapper

    # -- counters measured where the work happens --------------------------

    def _after_matmul(self, args, result) -> None:
        a, b = args
        self.scalar_mults += a.rows * a.cols * b.cols
        bits = max(
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for row in result.entries
            for x in row
        )
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def _after_char_poly(self, args, result) -> None:
        if not args[0].is_integral():
            self.rational_char_polys += 1

    def _after_integralize(self, args, result) -> None:
        if result[1] > 1:
            self.scaled_integralizations += 1

    # -- results -----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        n = len(self.enter)
        covered = [0] * n
        parent, enter, leave = self.parent, self.enter, self.leave
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += leave[i] - enter[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def metrics(self, self_ns: list[int], scale: dict, torsion_cache_info, overhead: float) -> dict:
        """Per-layer metrics as ``{name: {"value": v, "unit": u}}``.

        ``scale`` maps an item id to the calibration factor of its spans.
        """
        count = len(TRACED)
        calls = [0] * count
        self_total = [0.0] * count
        for nid, item, s in zip(self.name_id, self.item_id, self_ns):
            calls[nid] += 1
            self_total[nid] += s * scale[item]
        values: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0)
        for nid, (name, module, _) in enumerate(TRACED):
            values[f"{name}.calls"] = calls[nid]
            values[f"{name}.self_s"] = self_total[nid] / 1e9
            module_self[module] += self_total[nid]
        for module in MODULES:
            values[f"{module}.self_s"] = module_self[module] / 1e9
        ids = {name: nid for nid, name in enumerate(self.names)}
        values["exactlin.matmul.scalar_mults"] = self.scalar_mults
        values["exactlin.matmul.max_entry_bits"] = self.max_entry_bits
        values["exactlin.char_poly.rational_frac"] = _ratio(
            self.rational_char_polys, calls[ids["exactlin.char_poly"]]
        )
        values["shapes.rationalize.retry_ratio"] = _ratio(
            self.raised[ids["shapes.rationalize"]], calls[ids["shapes.rationalize"]]
        )
        values["lorentz.integralize.scale_gt1_frac"] = _ratio(
            self.scaled_integralizations, calls[ids["lorentz.integralize"]]
        )
        values["selberg.torsion_polynomials.hit_ratio"] = _ratio(
            torsion_cache_info.hits, torsion_cache_info.hits + torsion_cache_info.misses
        )
        values["trace.overhead_ratio"] = overhead
        units = metric_units()
        return {k: {"value": values[k], "unit": u} for k, u in units.items()}

    def write_spans(self, path, self_ns: list[int], scale: dict) -> None:
        """Tab-separated spans, uncalibrated times in ns from the first span's
        entry, and the calibration factor of the span's item."""
        origin = self.enter[0] if len(self.enter) else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\titem\tname\tparent\tstart_ns\tend_ns\tself_ns\tscale\n")
            names = self.names
            for i, nid in enumerate(self.name_id):
                item = self.item_id[i]
                out.write(
                    f"{i}\t{item}\t{names[nid]}\t{self.parent[i]}\t{self.start[i] - origin}\t"
                    f"{self.end[i] - origin}\t{self_ns[i]}\t{scale[item]}\n"
                )
