"""Corpus items and the helpers the four corpora share."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from checks import monomials, require

# Variable names a seed may draw. Lowercase only, so the CLI's uppercase
# dual operators never collide with a variable.
NAME_POOL = ("x", "y", "z", "w", "u", "v", "s", "t", "a", "b", "c", "p",
             "q", "r", "m", "k", "x0", "x1", "x2", "y0", "y1", "y2")


def _canon(obj) -> str:
    if hasattr(obj, "as_dict"):
        return json.dumps(obj.as_dict(), sort_keys=True, default=str)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(o) for o in obj) + "]"
    if hasattr(obj, "slices"):
        return "|".join(str(s.rows) for s in obj.slices)
    return str(obj)


def default_digest(obj) -> str:
    return hashlib.sha1(_canon(obj).encode()).hexdigest()


@dataclass
class Item:
    """One timed call into apolarity and the check of its result.

    run takes no arguments and reaches the program through module
    attributes, so the traced run sees the wrappers. check raises
    checks.CheckFailed; digest summarizes a result so later calls can be
    compared with the first without checking again. A pass calls run
    `reps` times in a row: light items get several samples per pass, so
    their medians settle as well as the heavy items' do.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str] = default_digest
    reps: int = 1


def pick_names(rng, n: int) -> list[str]:
    return rng.sample(NAME_POOL, n)


def make_poly(ap, names, form: dict):
    """The program's Poly over QQ for a benchmark form {exps: coefficient}."""
    return ap.poly.Poly(ap.poly.VarSet(tuple(names)),
                        {e: Fraction(c) for e, c in form.items()},
                        ap.fields.QQ)


def var_op(ap, names, index: int, power: int = 1):
    """The dual operator X_index^power as a program Poly."""
    exps = [0] * len(names)
    exps[index] = power
    return make_poly(ap, names, {tuple(exps): 1})


def rational_dict(p) -> dict:
    """{exps: Fraction} from a program Poly over QQ."""
    out = {}
    for exps, c in p.terms.items():
        require(len(c.coords) == 1, "expected a rational coefficient")
        out[exps] = c.coords[0]
    return out


def stripped(values) -> tuple:
    vals = list(values)
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def random_form(rng, n: int, d: int, terms: int, coeff: int = 5) -> dict:
    """A seeded form with `terms` distinct monomials and nonzero integer
    coefficients in [-coeff, coeff]."""
    basis = monomials(n, d)
    chosen = rng.sample(basis, terms)
    return {m: rng.choice([c for c in range(-coeff, coeff + 1) if c])
            for m in chosen}


def distinct_points(rng, n: int, count: int, spread: int,
                    first_one: bool = True) -> list[tuple]:
    """count distinct integer points, first coordinate 1 when asked."""
    seen = set()
    out = []
    while len(out) < count:
        p = tuple(rng.randint(-spread, spread) for _ in range(n))
        if first_one:
            p = (1,) + p[1:]
        if not any(p):
            continue
        lead = next(v for v in p if v)
        key = tuple(Fraction(v, lead) for v in p)
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


def set_reps(items, heavy: set, light_reps: int) -> list:
    """One call per pass for the named heavy items, light_reps for the rest."""
    for item in items:
        item.reps = 1 if item.name in heavy else light_reps
    return items
