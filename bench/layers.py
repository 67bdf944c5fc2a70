"""Per-layer call counts and self times, taken from outside the program.

install() replaces each function named in WRAPPED by a timing wrapper. A
module that did `from .linalg import kernel` holds its own reference, so the
wrapper is written into every apolarity module whose attribute is the
original function; methods are replaced on their class. Self time is a
call's wall time minus the wall time of the wrapped calls nested in it.
Entry scans for linalg.max_entry_bits run before the clock starts and are
charged to no layer. Only the traced run installs the wrappers.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

WRAPPED = {
    "parser": ("parse_poly",),
    "cli": ("run",),
    "families": ("classify", "monomial_certificate", "vandermonde",
                 "xa_sum_b_rank", "ci_rank", "sylvester"),
    "strassen": ("strassen_rank", "lemma52_hf_check"),
    "bounds": ("lower_bound", "upper_bound_from_points", "essential_vars",
               "linear_candidate_analysis", "prop36_check"),
    "apolar": ("catalecticant", "perp", "colon_by_form", "colon_by_ideal",
               "add_principal", "ideal_from_generators",
               "minimal_generators", "points_ideal"),
    "linalg": ("kernel", "solve", "matrix_rank", "subspace_intersect",
               "subspace_sum", "Subspace.from_raw_vectors",
               "Subspace.insert_raw"),
    "poly": ("apolar_action", "power_of_linear"),
    "fields": ("NumberField.mul_coords", "NumberField.inv_coords"),
}

# batch-elimination entry points: metric name -> (rows, cols) of the matrix
# the call eliminates, from its arguments
_CELLS = {
    "linalg.kernel": lambda a: (a[0].nrows, a[0].ncols),
    "linalg.matrix_rank": lambda a: (a[0].nrows, a[0].ncols),
    "linalg.solve": lambda a: (a[0].nrows, a[0].ncols + 1),
    "linalg.subspace_intersect": lambda a: (
        (0, 0) if a[0].is_full() or a[1].is_full()
        else (a[0].dim + a[1].dim, 2 * a[0].ambient)),
    "linalg.from_raw_vectors": lambda a: (len(a[1]), a[2]),
}

# the matrices those calls receive, as iterables of rows
_ROWS = {
    "linalg.kernel": lambda a: a[0].rows,
    "linalg.matrix_rank": lambda a: a[0].rows,
    "linalg.solve": lambda a: list(a[0].rows) + [a[1]],
    "linalg.subspace_intersect": lambda a: list(a[0].rows) + list(a[1].rows),
    "linalg.from_raw_vectors": lambda a: a[1],
}

UB_PARTS = {"linalg.solve": "solve", "poly.power_of_linear": "expand"}


def metric_base(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, tuple):
        return max((_bits(x) for x in v), default=0)
    coords = getattr(v, "coords", None)
    return _bits(coords) if coords is not None else 0


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, names in WRAPPED.items():
        for q in names:
            base = metric_base(module, q)
            out.append((f"{base}.calls", "count"))
            out.append((f"{base}.self_s", "s"))
    out += [(f"{name}.cells", "count") for name in _CELLS]
    out += [("linalg.max_entry_bits", "bits"),
            ("linalg.insert_raw.useful_ratio", "ratio"),
            ("bounds.upper_bound.solve_s", "s"),
            ("bounds.upper_bound.expand_s", "s"),
            ("bounds.upper_bound.verify_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Counters and a stack of nested-call time accumulators."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.cells = {name: 0 for name in _CELLS}
        self.max_bits = 0
        self.inserts_grown = 0
        self.ub_depth = 0
        self.ub_total = 0.0
        self.ub_parts = {"solve": 0.0, "expand": 0.0}
        self.stack = [[0.0]]

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter
        cells = _CELLS.get(name)
        rows = _ROWS.get(name)
        is_ub = name == "bounds.upper_bound_from_points"
        ub_part = UB_PARTS.get(name)
        is_insert = name == "linalg.insert_raw"
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            if cells is not None:
                r, c = cells(args)
                tracer.cells[name] += r * c
                for row in rows(args):
                    for v in row:
                        b = _bits(v)
                        if b > tracer.max_bits:
                            tracer.max_bits = b
            if is_ub:
                tracer.ub_depth += 1
            frame = [0.0]
            stack.append(frame)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                inclusive = t2 - t1
                calls[name] += 1
                self_s[name] += inclusive - frame[0]
                stack[-1][0] += t2 - t0
                if is_ub:
                    tracer.ub_depth -= 1
                    tracer.ub_total += inclusive
                elif ub_part is not None and tracer.ub_depth:
                    tracer.ub_parts[ub_part] += inclusive
            if is_insert and result:
                tracer.inserts_grown += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items()
                  if n == "apolarity" or n.startswith("apolarity.")]
        for module, names in WRAPPED.items():
            mod = sys.modules[f"apolarity.{module}"]
            for q in names:
                name = metric_base(module, q)
                if "." in q:
                    cls_name, attr = q.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr,
                                classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, attr, self.wrap(name, raw))
                    continue
                original = getattr(mod, q)
                wrapper = self.wrap(name, original)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, v in self.cells.items():
            out[f"{name}.cells"] = v
        out["linalg.max_entry_bits"] = self.max_bits
        inserts = self.calls["linalg.insert_raw"]
        out["linalg.insert_raw.useful_ratio"] = (
            self.inserts_grown / inserts if inserts else 0.0)
        solve, expand = self.ub_parts["solve"], self.ub_parts["expand"]
        out["bounds.upper_bound.solve_s"] = solve
        out["bounds.upper_bound.expand_s"] = expand
        out["bounds.upper_bound.verify_s"] = max(
            self.ub_total - solve - expand, 0.0)
        return out
