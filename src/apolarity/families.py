"""Closed-form rank engines for recognized families of forms.

Every family result recomputes its lower bound through the quotient engine
rather than trusting the closed formula; upper bounds are point
decompositions in closed form, checked exactly with no linear solve and no
visit of the other monomials (a monomial's and each XaSumB term's on its
grid of residues by _grid_check, V_n's by _permutation_check), or
self-contained cited statements.

analyze() classifies a form and runs the engine that ENGINES maps its tag
to. The FamilyAnalysis it returns is all that `apolarity rank` prints and
all that strassen_rank pairs across blocks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .apolar import HFProfile, hf, minimal_generators, perp
from .bounds import (
    LowerBoundWitness,
    RankCertificate,
    UpperBoundWitness,
    certify,
    essential_form,
    lower_bound,
    witness_fields,
)
from .errors import (
    DegreeMismatch,
    EOutOfRange,
    FieldMismatch,
    HypothesisViolated,
    NotBinary,
    NotCIShape,
    NotMonomial,
    NOutOfRange,
    ParameterOutOfRange,
    ZeroForm,
)
from .fields import (QQ, clear_denominators, cyclotomic_field, roots_of_unity,
                     squarefree_check, squarefree_decomposition, uni_degree,
                     uni_derivative, uni_divmod, uni_eval, uni_gcd, uni_trim)
from .poly import Poly, VarSet, _multinomial, apolar_action

MONOMIAL_CITATION = (
    "rk(x0^a0*...*xn^an) = prod_{i>=1}(a_i+1) when 0 < a0 <= a_i for all i; "
    "the lower bound comes from the colon by X0^e, the upper from the points "
    "with coordinate 1 at x0 and (a_i+1)-th roots of unity at x_i.")
BINARY_CITATION = (
    "for a binary form, ann(F) = (h1, h2) with deg h1 <= deg h2 and "
    "deg h1 + deg h2 = deg F + 2; rk(F) = deg h1 if h1 is squarefree, "
    "otherwise rk(F) = deg h2.")
XASUMB_GEQ_CITATION = (
    "rk(x0^a*(x1^b+...+xn^b)) = (a+1)n when a+1 >= b: the colon by "
    "(X1,...,Xn) with a general linear t has Hilbert function "
    "(1, n, ..., n, n-1) summing to (a+1)n, and an apolar reduced scheme "
    "of (a+1)n points attains it.")
XASUMB_N2_CITATION = (
    "rk(x0^a*(x1^b+x2^b)) = 2b when a+1 <= b: the colon by X0 has Hilbert "
    "function (1, 2, ..., 2, 1) summing to 2b, and an apolar scheme of 2b "
    "points attains it.")
XASUMB_STRICT_CITATION = (
    "equality with the colon sum bn-n+2 would force every point of a "
    "minimal decomposition onto the hyperplane dual to X0, which cannot "
    "decompose a form involving x0; hence rk >= bn-n+3.")
XASUMB_BN_CITATION = (
    "the ideal of the products X_i*X_j (1 <= i < j <= n) together with "
    "(n-1)*X1^b - X2^b - ... - Xn^b - X0^b cuts out bn distinct points "
    "apolar to x0^a*(x1^b+...+xn^b), so rk <= bn.")
PLUS_POWER_CITATION = (
    "X_i contracts x0^(a+b) to zero for i >= 1, so adding x0^(a+b) to "
    "x0^a*(x1^b+...+xn^b) leaves the colon by (X1,...,Xn) unchanged; when "
    "a+1 >= b the rank stays (a+1)n, attained by (a+1)n points on the n "
    "coordinate lines through the dual point of x0.")
PLUS_N2_UPPER_CITATION = (
    "the ideal (n*X0^b - binomial(a+b,b)*(X1^b+...+Xn^b), X_i*X_j for "
    "1 <= i < j <= n) annihilates x0^a*(x0^b+x1^b+...+xn^b) and cuts out "
    "bn distinct points, so rk <= bn.")
PLUS_TRUNCATION_CITATION = (
    "contracting x0^a*(x0^b+x1^b+...+xn^b) by X0 keeps the pure power "
    "alive, which kills the top degree of the colon quotient: the sum "
    "drops exactly one below the value for the form without x0^(a+b), "
    "and no colon by a degree-one ideal reaches higher.")
CI_CITATION = (
    "when ann(F) = (q^a, g_1, ..., g_n) is a complete intersection with "
    "a*deg(q) <= deg(g_i) for all i, the colon by q gives the unconditional "
    "lower bound prod deg(g_i), and a general complete intersection of the "
    "same degrees through the apolar scheme is a reduced set of "
    "prod deg(g_i) points, so rk(F) = prod deg(g_i).")
VANDERMONDE_CITATION = (
    "rk(V_n) = (n-1)!: the colon by X1 gives the lower bound, and the "
    "(n-1)! points (1, s(r_2), ..., s(r_n)), s ranging over permutations "
    "of the n-1 distinct roots of t^(n-1)+...+t+1, decompose V_n.")


@dataclass(frozen=True)
class FamilyMatch:
    """Syntactic family tag with its parameters and rank statement."""

    tag: str    # Binary | Monomial | XaSumB | XaSumBPlusPower | CIperp | X0aG | Vandermonde | None
    parameters: dict
    citation: str

    def as_dict(self) -> dict:
        return {"tag": self.tag, "parameters": dict(self.parameters),
                "citation": self.citation}


@dataclass(frozen=True)
class SylvesterResult:
    """Binary-form rank data: ann(F) = (h1, h2), rank by the squarefree rule."""

    h1: Poly
    h2: Poly
    d1: int
    d2: int
    squarefree_h1: bool
    rank: int

    def as_dict(self) -> dict:
        return {"h1": self.h1.dual_str(), "h2": self.h2.dual_str(),
                "d1": self.d1, "d2": self.d2,
                "squarefree_h1": self.squarefree_h1, "rank": self.rank}


def _dehomogenize(h: Poly) -> tuple[tuple, int]:
    # coefficients of the binary form h(t, 1) plus the multiplicity of its
    # root at infinity (the degree drop)
    d = h.degree()
    p = uni_trim(h.coeff((k, d - k)).as_fraction() for k in range(d + 1))
    return p, d - uni_degree(p)


def _binary_squarefree(h: Poly) -> bool:
    # squarefree over the closure: the root at infinity counts as well
    p, drop = _dehomogenize(h)
    return drop <= 1 and squarefree_check(p)


def sylvester(f: Poly) -> SylvesterResult:
    """Rank of a binary form from the two generators of its annihilator.

    The form may be given in a larger ring; it must use exactly two
    variables after the essential reduction. In the equal-degrees case a
    squarefree pencil member replaces h1 when one is found among at most
    twenty deterministic combinations.
    """
    if f.is_zero():
        raise ZeroForm("the zero form has no rank")
    if not f.field.is_rationals():
        raise FieldMismatch("the binary rank rule is implemented over the rationals")
    d = f.degree()
    if d < 1:
        raise DegreeMismatch("constants have no rank")
    ess, g = essential_form(f)
    if ess != 2:
        raise NotBinary(f"form uses {ess} essential variables, not 2")
    gens = minimal_generators(perp(g, d + 1))
    if len(gens) != 2:
        raise ArithmeticError("binary annihilator did not have two generators")
    gens.sort(key=lambda p: p.degree())
    h1, h2 = gens
    d1, d2 = h1.degree(), h2.degree()
    if d1 + d2 != d + 2:
        raise ArithmeticError("generator degrees violate the binary structure")
    if d1 < d2:
        sq = _binary_squarefree(h1)
        return SylvesterResult(h1, h2, d1, d2, sq, d1 if sq else d2)
    # equal degrees: scan the pencil h1 + k*h2 for a squarefree member
    members = [h1, h2]
    for k in range(1, 10):
        members.append(h1 + h2.scale(k))
        members.append(h1 + h2.scale(-k))
    for m in members[:20]:
        if not m.is_zero() and _binary_squarefree(m):
            return SylvesterResult(m, h2, d1, d2, True, d1)
    return SylvesterResult(h1, h2, d1, d2, False, d2)


def _homogenize(varset, coeffs, degree: int) -> Poly:
    # little-endian univariate p -> sum p[k] x0^k x1^(degree-k)
    terms = {}
    for k, c in enumerate(coeffs):
        if c != 0:
            terms[(k, degree - k)] = QQ.from_rational(Fraction(c))
    return Poly(varset, terms, QQ)


def _rational_roots(p) -> list[Fraction]:
    """The rational roots of a nonconstant p, sorted by (|numerator|,
    denominator, positive first), found without a search over divisors.

    With s = sum c_i x^i the squarefree part of p over the integers, y =
    c_deg*x turns s into the monic integer q(y) = sum c_i c_deg^(deg-1-i) y^i,
    whose rational roots are integers below B = 1 + max|q_i|. At a small
    prime l where no root of q mod l is repeated, each root mod l lifts by
    Newton's method to one root mod l^(2^j) > 2B; its symmetric residue is
    the only integer root it can be, and uni_eval keeps the true ones.
    """
    s = uni_divmod(p, uni_gcd(p, uni_derivative(p)))[0]
    c = clear_denominators(s)[1]
    deg, lead = len(c) - 1, c[-1]
    q = [ci * lead ** (deg - 1 - i) for i, ci in enumerate(c[:-1])] + [1]
    dq = [i * qi for i, qi in enumerate(q)][1:]

    def at(poly, x, mod):
        acc = 0
        for coeff in reversed(poly):
            acc = (acc * x + coeff) % mod
        return acc

    for ell in itertools.count(2):
        if any(ell % k == 0 for k in range(2, math.isqrt(ell) + 1)):
            continue
        residues = [r for r in range(ell) if at(q, r, ell) == 0]
        if all(at(dq, r, ell) for r in residues):
            break
    bound = 2 * (1 + max(abs(qi) for qi in q))
    roots = []
    for r in residues:
        mod = ell
        while mod <= bound:
            mod *= mod
            r = (r - at(q, r, mod) * pow(at(dq, r, mod), -1, mod)) % mod
        x = Fraction(r if 2 * r <= mod else r - mod, lead)
        if uni_eval(p, x) == 0:
            roots.append(x)
    return sorted(roots, key=lambda x: (abs(x.numerator), x.denominator,
                                        x < 0))


def _rational_linear_factors(h: Poly) -> list[Poly]:
    """Degree-one factors of a binary form over the rationals."""
    vs = h.varset
    p, drop = _dehomogenize(h)
    found = []
    if drop >= 1:
        found.append(Poly.variable(vs, 1))
    v = 0
    while v < len(p) and p[v] == 0:
        v += 1
    if v >= 1:
        found.append(Poly.variable(vs, 0))
        p = p[v:]
    if uni_degree(p) >= 1:
        found.extend(Poly.variable(vs, 0) - Poly.variable(vs, 1).scale(r)
                     for r in _rational_roots(p))
    return found


def _square_part(h: Poly) -> Poly | None:
    """Largest t with t^2 dividing the binary form, or None when trivial."""
    vs = h.varset
    p, drop = _dehomogenize(h)
    part = Poly.monomial(vs, (0, 0))
    if drop >= 2:
        part = part * Poly.variable(vs, 1, drop // 2)
    for fac, mult in squarefree_decomposition(p):
        if mult >= 2 and uni_degree(fac) >= 1:
            piece = _homogenize(vs, fac, uni_degree(fac))
            for _ in range(mult // 2):
                part = part * piece
    return part if not part.is_zero() and part.degree() >= 1 else None


def _binary_e_options(g: Poly, syl: SylvesterResult) -> dict:
    """e -> (gens, t) choices certifying a binary rank through the engine.

    Candidate contractions come from rational linear factors and square
    parts of the annihilator generators and, in the equal-degree case, of
    a few pencil members; a candidate survives only when the colon bound
    reproduces the rank unconditionally.
    """
    sources = [syl.h1, syl.h2]
    if syl.d1 == syl.d2:
        for k in range(1, 4):
            sources.append(syl.h1 + syl.h2.scale(k))
            sources.append(syl.h1 + syl.h2.scale(-k))
    candidates = []
    for h in sources:
        if h.is_zero():
            continue
        candidates.extend(_rational_linear_factors(h))
        sq = _square_part(h)
        if sq is not None:
            candidates.append(sq)
    options = {}
    for t in candidates:
        e = t.degree()
        if e < 1 or e in options:
            continue
        witness = lower_bound(g, [t], t)
        if witness.bound == syl.rank and witness.validity == "unconditional":
            options[e] = ((t,), t)
    return dict(sorted(options.items()))


def _monomial_data(f: Poly):
    if f.is_zero() or len(f.terms) != 1:
        raise NotMonomial("expected a single nonzero term")
    exps = next(iter(f.terms))
    if sum(exps) < 1:
        raise NotMonomial("constants are not monomials of positive degree")
    involved = [i for i, e in enumerate(exps) if e > 0]
    pivot = min(involved, key=lambda i: exps[i])
    return exps, involved, pivot


def _monomial_inputs(f: Poly, e: int):
    """((t,), t) for t = X_p^e, X_p dual to a least positive exponent."""
    _, _, pivot = _monomial_data(f)
    t = Poly.variable(f.varset, pivot, e, field=f.field)
    return (t,), t


def monomial_rank(f: Poly) -> int:
    """prod(a_i + 1) over the exponents away from a least positive one."""
    exps, involved, pivot = _monomial_data(f)
    return math.prod(exps[i] + 1 for i in involved if i != pivot)


def _monomial_grid(exps, involved, pivot):
    """(m, grid) for the points of a monomial: the order m of the roots of
    unity, and per point the exponents k with coordinate zeta_m^k at each
    involved variable, 0 at the pivot (its coordinate is 1)."""
    m = math.lcm(*(exps[i] + 1 for i in involved if i != pivot))
    return m, list(itertools.product(*(
        range(0, m, m // (exps[i] + 1)) if i != pivot else (0,)
        for i in involved)))


def _root_points(fld, m: int, nvars: int, involved, points) -> list:
    """Points given by exponents of zeta_m at the involved variables, as
    coordinate tuples over fld with 0 at every other variable."""
    roots, zero, out = roots_of_unity(fld, m), fld.zero, []
    for es in points:
        pt = [zero] * nvars
        for i, k in zip(involved, es):
            pt[i] = roots[k]
        out.append(tuple(pt))
    return out


def monomial_points(f: Poly):
    """The decomposition points of a monomial: pivot coordinate 1, the other
    involved coordinates running over all (a_i+1)-th roots of unity."""
    exps, involved, pivot = _monomial_data(f)
    m, grid = _monomial_grid(exps, involved, pivot)
    fld = cyclotomic_field(m)
    return _root_points(fld, m, len(f.varset), involved, grid), fld


def _closed_form(exps, involved, pivot):
    """The decomposition of x^a over the points of monomial_points, in
    exponents of zeta_m (Buczynska-Buczynski-Teitler, J. Algebra 378, 2013):

        x^a = sum_k zeta_m^(w_k) L_k^d / (multinomial(d; a) prod_(i != p)(a_i+1))

    with d = |a| and L_k the k-th point scaled to a leading coordinate 1,
    which multiplies its weight prod_i eps_i^(-a_i) by eps_lead^d. Returns
    m, each point as the exponents of its coordinates on the involved
    variables (the others are 0) and the weight exponents w_k.
    """
    m, grid = _monomial_grid(exps, involved, pivot)
    d = sum(exps)
    points, weights = [], []
    for ks in grid:
        points.append(tuple((k - ks[0]) % m for k in ks))
        weights.append((d * ks[0] - sum(exps[i] * k
                                        for i, k in zip(involved, ks))) % m)
    return m, points, weights


def _grid_check(exps, involved, pivot, m: int, points, weights) -> int:
    """lambda with sum_k zeta_m^(w_k) L_k^d = lambda*x^a for _closed_form's
    data, checked in O(points), or ArithmeticError raised.

    Scaled to pivot coordinate 1, the points have exponents u_i = e_i - e_p.
    They must be distinct, prod_(i != p)(a_i+1) in number and satisfy
    (a_i+1)*u_i = 0 mod m, so u meets each class of the grid of (a_i+1)-th
    roots of unity once; and w_k + d*e_p + a.u = 0 mod m. As b.e = d*e_p + b.u,
    x^b then has the coefficient multinomial(d; b) prod_(i != p)
    sum_(j <= a_i) zeta_(a_i+1)^(j*(b_i-a_i)), whose factors are a_i+1 if
    a_i+1 divides b_i-a_i and 0 otherwise. A surviving b_i-a_i >= -a_i is a
    nonnegative multiple of a_i+1; they sum to a_p-b_p <= a_p < a_i+1, so
    only b = a survives, and lambda = multinomial(d; a) prod_(i != p)(a_i+1).
    """
    j, d, seen = involved.index(pivot), sum(exps), set()
    for es, w in zip(points, weights):
        u = tuple((k - es[j]) % m for k in es)
        seen.add(u)
        if ((w + d * es[j] + sum(exps[i] * x for i, x in zip(involved, u))) % m
                or any((exps[i] + 1) * x % m for i, x in zip(involved, u))):
            raise ArithmeticError("decomposition failed re-verification")
    size = math.prod(exps[i] + 1 for i in involved if i != pivot)
    if not len(seen) == len(points) == size:
        raise ArithmeticError("decomposition failed re-verification")
    return _multinomial(d, [exps[i] for i in involved]) * size


def _permutation_check(target, n: int, points, weights, signs):
    """(lead, den) for V_n's witness, or ArithmeticError raised: lead =
    max(target) and den, the coefficient of x^lead in sum_k s_k zeta^(w_k)
    L_k^d, is multinomial(d; lead) prod_(i<j)(zeta^(lead_j) - zeta^(lead_i))/n.

    The points must be e = (0, s(1), ..., s(n-1)), once for each permutation
    s of 1..n-1, with w_k = 0 and s_k = sgn s. Following s by the n-cycle
    k -> k+1 mod n adds d = n(n-1)/2 to b.e and multiplies the sign by
    (-1)^(n-1) = zeta^d, so the n cosets of these s in S_n give equal sums,
    and x^b has the coefficient multinomial(d; b) det[zeta^(b_i*j)]/n =
    multinomial(d; b) prod_(i<j)(zeta^(b_j) - zeta^(b_i))/n. It vanishes
    unless the b_i are distinct mod n; n distinct residues summing to d are
    0..n-1 themselves, so b is a permutation, the product is sgn(b) times
    that of b = (0, ..., n-1) and multinomial(d; b) is the same for all b:
    the sum is one lambda times V_n, whose coefficient at x^b is +-sgn(b).
    """
    seen = set()
    for e, w, s in zip(points, weights, signs):
        seen.add(e)
        if (e[0] or w or sorted(e) != list(range(n)) or s != (-1) ** sum(
                x > y for x, y in itertools.combinations(e, 2))):
            raise ArithmeticError("decomposition failed re-verification")
    if not len(seen) == len(points) == math.factorial(n - 1):
        raise ArithmeticError("decomposition failed re-verification")
    lead = max(target)
    roots = roots_of_unity(cyclotomic_field(n), n)
    den = roots[0]
    for i, j in itertools.combinations(range(n), 2):
        den = den * (roots[lead[j]] - roots[lead[i]])
    return lead, (den * Fraction(_multinomial(sum(lead), lead), n)).coords


def _exponent_witness(f: Poly, involved, m: int, points, weights, signs,
                      lead, den) -> UpperBoundWitness | None:
    """The points and c_k = s_k zeta^(w_k) c/den of a checked decomposition,
    c F's coefficient at lead and den target's there times lambda; None when
    F lies over an extension other than Q(zeta_m) with m >= 3."""
    fld = f.field if m <= 2 else cyclotomic_field(m)
    if not (m <= 2 or f.field.is_rationals() or f.field == fld):
        return None
    at = dict(zip(involved, lead))
    scale = f.lift(fld).coeff([at.get(i, 0) for i in range(len(f.varset))])
    # a rational lambda is inverted as a Fraction, not through the field
    inv = (scale / fld.element(den) if any(den[1:])
           else scale * Fraction(1, den[0]))
    roots = roots_of_unity(fld, m)
    coeffs = tuple([roots[w] * inv if s > 0 else -(roots[w] * inv)
                    for w, s in zip(weights, signs)])
    coords = _root_points(fld, m, len(f.varset), involved, points)
    return UpperBoundWitness(tuple(coords), coeffs, len(coords), fld)


def monomial_certificate(f: Poly, e: int = 1,
                         solve_points: bool = True) -> RankCertificate:
    """Certified rank of a monomial: colon lower bound at degree e against
    the closed-form cyclotomic point decomposition.

    With solve_points=False, or over an extension field other than
    Q(zeta_m), the decomposition is carried as a cited statement instead.
    """
    exps, involved, pivot = _monomial_data(f)
    a0 = exps[pivot]
    if e < 1 or 2 * e > a0 + 1:
        raise EOutOfRange(f"need 1 <= e <= {(a0 + 1) // 2} for least exponent {a0}")
    rank = monomial_rank(f)
    gens, te = _monomial_inputs(f, e)
    witness = lower_bound(f, list(gens), te)
    if witness.bound != rank:
        raise ArithmeticError("monomial bound disagreed with the formula")
    upper = None
    if solve_points:
        m, points, weights = _closed_form(exps, involved, pivot)
        lam = _grid_check(exps, involved, pivot, m, points, weights)
        upper = _exponent_witness(f, involved, m, points, weights,
                                  [1] * len(points),
                                  tuple(exps[i] for i in involved), [lam])
    if upper is None:
        return RankCertificate(f, witness, None, "cited-upper", rank,
                               MONOMIAL_CITATION)
    return RankCertificate(f, witness, upper, "certified-equal")


@dataclass(frozen=True)
class XaSumBResult:
    """Rank data for x0^a*(x1^b+...+xn^b), optionally plus x0^(a+b)."""

    form: Poly
    a: int
    b: int
    n: int
    plus_power: bool
    regime: str    # "a+1>=b" | "n=2" | "open"
    rank: int | None
    interval: tuple[int, int]
    lower: LowerBoundWitness
    upper: UpperBoundWitness | None
    status: str
    citations: tuple[str, ...]

    def as_dict(self) -> dict:
        out = {
            "form": str(self.form),
            "family": {
                "tag": "XaSumBPlusPower" if self.plus_power else "XaSumB",
                "parameters": {"a": self.a, "b": self.b, "n": self.n},
                "citation": self.citations[0],
            },
        }
        out.update(witness_fields(self.lower, self.upper))
        out["status"] = self.status
        if self.rank is not None:
            out["rank"] = self.rank
        out["interval"] = list(self.interval)
        out["citations"] = list(self.citations)
        return out


def build_xa_sum_b(a: int, b: int, n: int, plus_power: bool = False) -> Poly:
    varset = VarSet(tuple(f"x{i}" for i in range(n + 1)))
    total = Poly.zero(varset)
    for i in range(1, n + 1):
        exps = [0] * (n + 1)
        exps[0] = a
        exps[i] = b
        total = total + Poly(varset, {tuple(exps): 1})
    if plus_power:
        total = total + Poly.variable(varset, 0, a + b)
    return total


def _stripped(profile: HFProfile) -> tuple[int, ...]:
    vals = list(profile.values)
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def xa_sum_b_rank(a: int, b: int, n: int, plus_power: bool = False,
                  seed: int = 0) -> XaSumBResult:
    """Rank (or interval) of x0^a*(x1^b+...+xn^b) with engine recomputation.

    a+1 >= b: rank (a+1)n via the colon by (X1,...,Xn) and a generic
    linear t; certified with explicit points when b <= a. n = 2 with
    a+1 <= b: rank 2b via the colon by X0, unconditional. Otherwise the
    colon sum is bn-n+2 and the strictness and bn-point statements close
    the gap to [bn-n+3, bn], an equality exactly when n = 3.

    With the extra x0^(a+b) term the colon by (X1,...,Xn) is untouched,
    so a+1 >= b keeps rank (a+1)n; but for a+1 < b the pure power
    truncates the colon by X0 one short of the plain sum, leaving only
    the interval [bn-n+1, bn] (with n = 2 that is [2b-1, 2b]).
    """
    if a < 1 or b < 2 or n < 2:
        raise ParameterOutOfRange("need a >= 1, b >= 2, n >= 2")
    return _xa_sum_b(build_xa_sum_b(a, b, n, plus_power), a, b, n,
                     plus_power, 0, range(1, n + 1), seed)


def _xa_sum_b(form: Poly, a: int, b: int, n: int, plus_power: bool,
              pivot: int, others, seed: int) -> XaSumBResult:
    """xa_sum_b_rank's answer for a rational form that is
    x_p^a*(sum of x_i^b over the n variables i in others), plus x_p^(a+b)
    with plus_power, p the pivot, found on the form itself: the colons by
    X_p and by the X_i in the order of others, and the points on the lines
    through the dual points of x_p and x_i."""
    varset = form.varset
    x0 = Poly.variable(varset, pivot)

    if plus_power and a + 1 < b:
        witness = lower_bound(form, [x0], x0)
        expected = (1,) + (n,) * (b - 1)
        engine_sum = b * n - n + 1
        if _stripped(witness.profile) != expected or witness.bound != engine_sum:
            raise ArithmeticError("colon profile disagreed with the "
                                  "truncated table")
        return XaSumBResult(form, a, b, n, True, "n=2" if n == 2 else "open",
                            None, (engine_sum, b * n), witness, None,
                            "bounds-only",
                            (PLUS_TRUNCATION_CITATION, PLUS_N2_UPPER_CITATION))

    if n == 2 and a + 1 <= b and not plus_power:
        witness = lower_bound(form, [x0], x0)
        expected = (1,) + (2,) * (b - 1) + (1,)
        if _stripped(witness.profile) != expected or witness.bound != 2 * b:
            raise ArithmeticError("colon profile disagreed with the 2b table")
        return XaSumBResult(form, a, b, n, plus_power, "n=2", 2 * b,
                            (2 * b, 2 * b), witness, None, "cited-upper",
                            (XASUMB_N2_CITATION,))

    if a + 1 >= b:
        gens = [Poly.variable(varset, i) for i in others]
        witness = lower_bound(form, gens, None, seed)
        expected = (1,) + (n,) * a + (n - 1,)
        rank = (a + 1) * n
        if _stripped(witness.profile) != expected or witness.bound != rank:
            raise ArithmeticError("colon profile disagreed with the (a+1)n table")
        cites = (XASUMB_GEQ_CITATION,)
        if plus_power:
            cites = cites + (PLUS_POWER_CITATION,)
        if b <= a and not plus_power:
            # each term x_p^a*x_i^b is a monomial with least exponent at
            # x_i; listing x_p first keeps coordinate 1 at the pivot
            parts = []
            for i in others:
                exps = [0] * len(varset)
                exps[pivot], exps[i] = a, b
                m, points, weights = _closed_form(exps, (pivot, i), i)
                lam = _grid_check(exps, (pivot, i), i, m, points, weights)
                parts.append(_exponent_witness(form, (pivot, i), m, points,
                                               weights, [1] * m, (a, b),
                                               [lam]))
            points = tuple(p for w in parts for p in w.points)
            upper = UpperBoundWitness(
                points, tuple(c for w in parts for c in w.coefficients),
                len(points), parts[0].field)
            return XaSumBResult(form, a, b, n, plus_power, "a+1>=b", rank,
                                (rank, rank), witness, upper,
                                "certified-equal", cites)
        return XaSumBResult(form, a, b, n, plus_power, "a+1>=b", rank,
                            (rank, rank), witness, None, "cited-upper", cites)

    witness = lower_bound(form, [x0], x0)
    expected = (1,) + (n,) * (b - 1) + (1,)
    engine_sum = b * n - n + 2
    if _stripped(witness.profile) != expected or witness.bound != engine_sum:
        raise ArithmeticError("colon profile disagreed with the bn-n+2 table")
    low, high = b * n - n + 3, b * n
    cites = (XASUMB_STRICT_CITATION, XASUMB_BN_CITATION)
    if n == 3:
        return XaSumBResult(form, a, b, n, plus_power, "open", 3 * b,
                            (low, high), witness, None, "cited-upper", cites)
    return XaSumBResult(form, a, b, n, plus_power, "open", None,
                        (low, high), witness, None, "bounds-only", cites)


def ci_rank(f: Poly, q: Poly, a: int) -> RankCertificate:
    """Rank of F when ann(F) = (q^a, g_1, ..., g_n) is a complete intersection.

    Verifies the shape: q^a annihilates F, the annihilator has exactly one
    minimal generator per variable, the degree multiset contains a*deg(q),
    and the Hilbert function matches the Koszul product for those degrees.
    Requires a >= 2 and a*deg(q) at most every other generator degree.
    """
    from .apolar import koszul_ci_hf

    if f.is_zero() or q.is_zero():
        raise ZeroForm("zero input")
    if a < 2:
        raise HypothesisViolated("the power a must be at least 2")
    e = q.degree()
    if e < 1:
        raise DegreeMismatch("q must have positive degree")
    d = f.degree()
    qa = q ** a
    if not apolar_action(qa, f).is_zero():
        raise NotCIShape("q^a does not annihilate F")
    fperp = perp(f, d + 1)
    gens = minimal_generators(fperp)
    nvars = len(f.varset)
    if len(gens) != nvars:
        raise NotCIShape(f"annihilator has {len(gens)} minimal generators, "
                         f"need {nvars} for a complete intersection")
    degs = sorted(g.degree() for g in gens)
    ae = a * e
    if ae not in degs:
        raise NotCIShape(f"no minimal generator in degree {ae} = a*deg(q)")
    rest = list(degs)
    rest.remove(ae)
    if rest and ae > min(rest):
        raise HypothesisViolated("a*deg(q) must not exceed the other degrees")
    if hf(fperp).values != koszul_ci_hf(tuple(degs), d + 1).values:
        raise NotCIShape("Hilbert function is not the Koszul product: "
                         "the generators are not a regular sequence")
    rank = math.prod(rest)
    witness = lower_bound(f, [q], q)
    if witness.bound != rank:
        raise ArithmeticError("complete intersection bound disagreed with "
                              "the degree product")
    return RankCertificate(f, witness, None, "cited-upper", rank, CI_CITATION)


def detect_x0a_g(f: Poly):
    """Find (j, alpha, G) with F = x_j^alpha * G and G free of x_j, or None."""
    if f.is_zero():
        return None
    n = len(f.varset)
    for j in range(n):
        exps_j = {e[j] for e in f.terms}
        if len(exps_j) == 1:
            alpha = exps_j.pop()
            if alpha >= 1:
                quotient = Poly(f.varset,
                                {tuple(x - alpha if i == j else x
                                       for i, x in enumerate(e)): c
                                 for e, c in f.terms.items()}, f.field)
                if quotient.degree() >= 1:
                    return j, alpha, quotient
    return None


def x0a_g_certificate(f: Poly) -> RankCertificate:
    """Rank of F = x_j^alpha * G through the complete-intersection engine:
    ann(F) = (X_j^(alpha+1), ann(G)), so q = X_j with exponent alpha+1."""
    found = detect_x0a_g(f)
    if found is None:
        raise NotCIShape("form is not x_j^alpha * G with G free of x_j")
    j, alpha, _ = found
    return ci_rank(f, Poly.variable(f.varset, j, field=f.field), alpha + 1)


def elementary_symmetric(varset: VarSet, k: int, field=QQ) -> Poly:
    n = len(varset)
    if not 0 <= k <= n:
        raise ParameterOutOfRange(f"sigma_{k} undefined in {n} variables")
    terms = {}
    for combo in itertools.combinations(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return Poly(varset, terms, field)


def build_vandermonde(n: int) -> Poly:
    varset = VarSet(tuple(f"x{i}" for i in range(1, n + 1)))
    v = Poly.constant(varset, 1)
    for i in range(n):
        for j in range(i + 1, n):
            v = v * (Poly.variable(varset, i) - Poly.variable(varset, j))
    return v


@dataclass(frozen=True)
class VandermondeResult:
    """Rank (n-1)! of the Vandermonde determinant with its witnesses."""

    n: int
    form: Poly
    rank: int
    lower: LowerBoundWitness
    upper: UpperBoundWitness | None
    status: str
    citation: str

    def as_dict(self) -> dict:
        out = {
            "form": str(self.form),
            "family": {"tag": "Vandermonde", "parameters": {"n": self.n},
                       "citation": self.citation},
        }
        out.update(witness_fields(self.lower, self.upper))
        out["status"] = self.status
        out["rank"] = self.rank
        return out


def vandermonde(n: int, solve_points: bool | None = None) -> VandermondeResult:
    """Certified rank of V_n = prod_{i<j}(x_i - x_j), 3 <= n <= 6.

    Verifies that every elementary symmetric polynomial annihilates V_n and
    that the colon by X1 reproduces (n-1)!. The permutation points carry
    the closed-form decomposition for n <= 4 by default, so that the
    output of n = 5 and 6 stays as it was, and for every n with
    solve_points=True; otherwise it is carried as a cited statement. The
    decomposition is checked by _permutation_check, in O(n^2) field
    products once the (n-1)! points are listed.
    """
    if not 3 <= n <= 6:
        raise NOutOfRange("Vandermonde engine covers 3 <= n <= 6")
    v = build_vandermonde(n)
    for k in range(1, n + 1):
        if not apolar_action(elementary_symmetric(v.varset, k), v).is_zero():
            raise ArithmeticError(f"sigma_{k} failed to annihilate V_{n}")
    x1 = Poly.variable(v.varset, 0)
    witness = lower_bound(v, [x1], x1)
    rank = math.factorial(n - 1)
    if witness.bound != rank:
        raise ArithmeticError("Vandermonde colon bound disagreed with (n-1)!")
    if solve_points is None:
        solve_points = n <= 4
    if not solve_points:
        return VandermondeResult(n, v, rank, witness, None, "cited-upper",
                                 VANDERMONDE_CITATION)
    # points (1, zeta^s(1), ..., zeta^s(n-1)) weighted by sgn s
    points = [(0,) + s for s in itertools.permutations(range(1, n))]
    signs = [(-1) ** sum(x > y for x, y in itertools.combinations(e, 2))
             for e in points]
    weights = [0] * len(points)
    lead, den = _permutation_check(v.terms, n, points, weights, signs)
    upper = _exponent_witness(v, range(n), n, points, weights, signs, lead,
                              den)
    return VandermondeResult(n, v, rank, witness, upper, "certified-equal",
                             VANDERMONDE_CITATION)


def _classify_xa_sum_b(f: Poly) -> FamilyMatch | None:
    if len(f.terms) < 2:
        return None
    one = f.field.one
    if any(c != one for c in f.terms.values()):
        return None
    for j0 in range(len(f.varset)):
        if any(e[j0] == 0 for e in f.terms):
            continue
        pure = [e for e in f.terms if sum(e) == e[j0]]
        body = [e for e in f.terms if sum(e) != e[j0]]
        if len(pure) > 1 or not body:
            continue
        a_vals = {e[j0] for e in body}
        if len(a_vals) != 1:
            continue
        a = a_vals.pop()
        others = []
        b_vals = set()
        ok = True
        for e in body:
            support = [i for i, x in enumerate(e) if x > 0 and i != j0]
            if len(support) != 1:
                ok = False
                break
            others.append(support[0])
            b_vals.add(e[support[0]])
        if not ok or len(b_vals) != 1 or len(set(others)) != len(others):
            continue
        b = b_vals.pop()
        n = len(others)
        if a < 1 or b < 2 or n < 2:
            continue
        if pure:
            if pure[0][j0] != a + b:
                continue
            return FamilyMatch("XaSumBPlusPower",
                               {"a": a, "b": b, "n": n, "pivot": j0},
                               PLUS_POWER_CITATION)
        cite = XASUMB_GEQ_CITATION if a + 1 >= b else (
            XASUMB_N2_CITATION if n == 2 else XASUMB_STRICT_CITATION)
        return FamilyMatch("XaSumB", {"a": a, "b": b, "n": n, "pivot": j0},
                           cite)
    return None


def classify(f: Poly) -> FamilyMatch:
    """Syntactic family recognition on the monomial support.

    No recognition up to general coordinate change is attempted; forms
    matching no pattern come back tagged None (binary forms are detected
    through the essential-variable count).
    """
    if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
        return FamilyMatch("None", {}, "")
    if len(f.terms) == 1:
        exps = next(iter(f.terms))
        return FamilyMatch("Monomial", {"exponents": list(exps)},
                           MONOMIAL_CITATION)
    n = len(f.varset)
    if 3 <= n <= 6 and f.degree() == n * (n - 1) // 2:
        # compare exponent tables so variable names do not matter
        v = build_vandermonde(n)
        target = v if f.field.is_rationals() else v.lift(f.field)
        if dict(f.terms) == dict(target.terms):
            return FamilyMatch("Vandermonde", {"n": n}, VANDERMONDE_CITATION)
    match = _classify_xa_sum_b(f)
    if match is not None:
        return match
    found = detect_x0a_g(f)
    if found is not None:
        j, alpha, _ = found
        return FamilyMatch("X0aG", {"pivot": j, "a": alpha}, CI_CITATION)
    return _essential_match(f)


def _essential_match(f: Poly) -> FamilyMatch:
    """Binary when two essential variables remain over QQ, else None."""
    if f.field.is_rationals() and essential_form(f)[0] == 2:
        return FamilyMatch("Binary", {}, BINARY_CITATION)
    return FamilyMatch("None", {}, "")


# -- the engine table: one entry per classify() tag

@dataclass(frozen=True)
class FamilyAnalysis:
    """A form's answer from the engine of its family. result.as_dict() is
    the body of `apolarity rank --json`; block() returns the certificate
    and the {e: (gens, t)} e-options strassen pairs, and does the work only
    strassen needs (the binary e-option search)."""

    tag: str
    bounds: tuple[int, int | None]
    result: object
    citations: tuple[str, ...]
    block: Callable[[], tuple[RankCertificate, dict]]

    @property
    def rank(self) -> int | None:
        lo, hi = self.bounds
        return lo if lo == hi else None


def _variables(f: Poly) -> list[Poly]:
    return [Poly.variable(f.varset, i, field=f.field)
            for i in range(len(f.varset))]


def _block_certificate(f: Poly, res, citation: str) -> RankCertificate:
    # a Vandermonde or XaSumB result as a certificate for the form itself
    cited = res.rank if res.status == "cited-upper" else None
    return RankCertificate(f, res.lower, res.upper, res.status, cited,
                           None if cited is None else citation)


def _monomial_engine(f, match, seed, e):
    rank = monomial_rank(f)
    cert = monomial_certificate(f, e)
    a0 = min(x for x in match.parameters["exponents"] if x > 0)
    es = range(1, (a0 + 1) // 2 + 1)
    return FamilyAnalysis(match.tag, (rank, rank), cert, (MONOMIAL_CITATION,),
                          lambda: (cert, {k: _monomial_inputs(f, k)
                                          for k in es}))


def _vandermonde_engine(f, match, seed, e):
    res = vandermonde(match.parameters["n"])
    cert = _block_certificate(f, res, res.citation)
    t = Poly.variable(f.varset, 0)
    return FamilyAnalysis(match.tag, (res.rank, res.rank), res,
                          (res.citation,), lambda: (cert, {1: ((t,), t)}))


def _xa_sum_b_engine(f, match, seed, e):
    a, b, n, pivot = (match.parameters[k] for k in ("a", "b", "n", "pivot"))
    # every coefficient is 1 (classify), so F is read over QQ: the points
    # of its decomposition lie in Q(zeta_(a+1)), which need not be F's field
    res = _xa_sum_b(Poly(f.varset, dict.fromkeys(f.terms, 1)), a, b, n,
                    match.tag == "XaSumBPlusPower", pivot,
                    [i for i in f.support_vars() if i != pivot], seed)
    cert = _block_certificate(f, res, res.citations[0])
    options = {}
    if res.rank is not None and res.regime != "open":
        # only these regimes carry an engine witness reaching the rank
        options[1] = (res.lower.gens, res.lower.t)
    return FamilyAnalysis(match.tag, res.interval, res, res.citations,
                          lambda: (cert, options))


def _x0a_g_engine(f, match, seed, e):
    try:
        cert = x0a_g_certificate(f)
    except (HypothesisViolated, NotCIShape):
        # outside the complete-intersection theorem: answer as a form
        # with no X0aG match
        rest = _essential_match(f)
        return ENGINES[rest.tag](f, rest, seed, e)
    q = Poly.variable(f.varset, match.parameters["pivot"])
    return FamilyAnalysis(match.tag, (cert.rank, cert.rank), cert,
                          (CI_CITATION,), lambda: (cert, {1: ((q,), q)}))


def _binary_engine(f, match, seed, e):
    syl = sylvester(f)

    def block():
        options = _binary_e_options(f, syl) if len(f.varset) == 2 else {}
        if options:
            gens, t = options[min(options)]
            witness = lower_bound(f, list(gens), t)
        else:
            witness = lower_bound(f, _variables(f), None, seed)
        return RankCertificate(f, witness, None, "cited-upper", syl.rank,
                               BINARY_CITATION), options
    return FamilyAnalysis(match.tag, (syl.rank, syl.rank), syl,
                          (BINARY_CITATION,), block)


def _generic_engine(f, match, seed, e):
    # no family recognized: bounds from the colon by all the variables
    cert = certify(f, _variables(f), seed=seed)
    return FamilyAnalysis(match.tag, (cert.lower.bound, None), cert, (),
                          lambda: (cert, {}))


# tag -> engine(f, match, seed, e) returning a FamilyAnalysis
ENGINES = {
    "Monomial": _monomial_engine,
    "Vandermonde": _vandermonde_engine,
    "XaSumB": _xa_sum_b_engine,
    "XaSumBPlusPower": _xa_sum_b_engine,
    "X0aG": _x0a_g_engine,
    "Binary": _binary_engine,
    "None": _generic_engine,
}


def analyze(f: Poly, seed: int = 0, e: int = 1) -> FamilyAnalysis:
    """Classify F and run the engine of its family once.

    seed drives the generic draws of t, and e is the colon degree of the
    monomial certificate; e < 1 is refused for every family.
    """
    match = classify(f)
    # the monomial engine refuses e outside its own, narrower range
    if e < 1 and match.tag != "Monomial":
        raise EOutOfRange("need e >= 1")
    return ENGINES[match.tag](f, match, seed, e)
