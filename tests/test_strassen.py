"""Additivity pipeline: block splitting, shared-e certification, verdicts,
and the joint Hilbert function identity."""

import random
from fractions import Fraction

import pytest

from apolarity.apolar import perp
from apolarity.bounds import essential_vars
from apolarity.errors import (DegreeMismatch, EmptyGeneratorList,
                              EOutOfRange, FieldMismatch, MixedDegrees,
                              ZeroForm)
from apolarity.families import (ENGINES, FamilyMatch, _rational_roots,
                                build_vandermonde, build_xa_sum_b)
from apolarity.fields import (QQ, clear_denominators, uni_eval, uni_mul,
                              uni_trim)
from apolarity.parser import parse_poly
from apolarity.poly import Poly, VarSet, embed_in_varset, restrict_to_vars
from apolarity.strassen import (OPEN_PAIRING_QUESTION, lemma52_hf_check,
                                strassen_rank)


def mono(varset, exps, coeff=1):
    return Poly.monomial(varset, exps, coeff)


def degree_11_ci_block(varset, offset=0):
    """x^11 - 22x^9y^2 + ... in the given ring, variables at offset.."""
    data = {
        (11, 0, 0): 1, (9, 2, 0): -22, (7, 4, 0): 33,
        (9, 0, 2): -22, (7, 2, 2): 396, (5, 4, 2): -462,
        (7, 0, 4): 33, (5, 2, 4): -462, (3, 4, 4): 385,
    }
    pad = len(varset) - offset - 3
    terms = {}
    for (a, b, c), v in data.items():
        exps = (0,) * offset + (a, b, c) + (0,) * pad
        terms[exps] = QQ.from_rational(Fraction(v))
    return Poly(varset, terms, QQ)


def test_two_monomial_blocks_certify_additively():
    V = VarSet(("x0", "x1", "y0", "y1", "y2"))
    f = mono(V, (2, 1, 0, 0, 0)) + mono(V, (0, 0, 1, 1, 1))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert bool(report)
    assert report.total_rank == 7
    assert report.shared_e == 1
    assert [s.rank for s in report.summands] == [3, 4]
    assert [s.block for s in report.summands] == [("x0", "x1"),
                                                  ("y0", "y1", "y2")]
    for s in report.summands:
        assert s.perp_e_zero
        assert s.e_used == 1
        checks = s.checks()
        assert checks["e-computable-certified"]
        assert checks["perp-e-zero"]


def test_two_pure_powers():
    V = VarSet(("x", "y"))
    f = mono(V, (5, 0)) + mono(V, (0, 5))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert report.total_rank == 2
    # a pure quintic power admits every e with 2e <= 5 + 1
    assert report.summands[0].e_options == (1, 2, 3)
    assert report.summands[0].family == "Monomial"


def test_fresh_power_increments_rank_by_one():
    # rk(F + y^d) = rk(F) + 1 for a fresh variable y, chained twice
    V = VarSet(("x0", "x1", "u", "v"))
    base = mono(V, (2, 1, 0, 0))
    one_more = base + mono(V, (0, 0, 3, 0))
    two_more = one_more + mono(V, (0, 0, 0, 3))
    assert strassen_rank(one_more).total_rank == 4
    r = strassen_rank(two_more)
    assert r.verdict == "certified"
    assert r.total_rank == 5


def test_common_variable_counterexample_is_refused():
    # x0*(x1^2 + x2^2): the two terms share x0, rk = 4 < 3 + 3
    f = build_xa_sum_b(1, 2, 2)
    report = strassen_rank(f)
    assert report.verdict == "refused"
    assert not bool(report)
    assert report.total_rank is None
    assert report.interval == (4, 4)
    note = report.notes[-1]
    assert "rank is 4" in note and "summing to 6" in note
    assert report.summands[0].rank == 4

    bigger = strassen_rank(build_xa_sum_b(2, 3, 4))
    assert bigger.verdict == "refused"
    assert bigger.interval == (12, 12)
    assert "summing to 16" in bigger.notes[-1]


def test_single_block_without_special_structure_is_refused():
    V = VarSet(("x0", "x1"))
    report = strassen_rank(mono(V, (2, 1)))
    assert report.verdict == "refused"
    assert report.total_rank is None
    assert report.interval is None
    assert report.summands[0].family == "Monomial"


def test_power_times_sum_block_plus_monomial_block():
    V = VarSet(("x0", "x1", "x2", "y0", "y1", "y2"))
    f = (mono(V, (8, 2, 0, 0, 0, 0)) + mono(V, (8, 0, 2, 0, 0, 0))
         + mono(V, (0, 0, 0, 1, 4, 5)))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert report.shared_e == 1
    assert report.total_rank == 48
    assert [s.rank for s in report.summands] == [18, 30]
    assert [s.family for s in report.summands] == ["XaSumB", "Monomial"]


def test_plus_power_block_in_closed_regime():
    # x0^2*(x0^2 + x1^2 + x2^2) has rank 6; a fresh fourth power adds 1
    V = VarSet(("x0", "x1", "x2", "y"))
    f = (mono(V, (4, 0, 0, 0)) + mono(V, (2, 2, 0, 0))
         + mono(V, (2, 0, 2, 0)) + mono(V, (0, 0, 0, 4)))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert report.total_rank == 7
    assert report.summands[0].family == "XaSumBPlusPower"


def test_binary_block_certifies_with_rational_contraction():
    # x0^2*x1 + x0*x1^2 = x0*x1*(x0 + x1) has rank 2 and couples its two
    # variables, so it survives the disjoint split as one binary block
    V = VarSet(("x0", "x1", "y0", "y1", "y2"))
    f = mono(V, (2, 1, 0, 0, 0)) + mono(V, (1, 2, 0, 0, 0)) \
        + mono(V, (0, 0, 1, 1, 1))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert report.total_rank == 6
    binary = report.summands[0]
    assert binary.family == "Binary"
    assert 1 in binary.e_options
    assert binary.rank == 2
    assert binary.certificate.lower.t.degree() == 1
    assert binary.certificate.lower.validity == "unconditional"


def test_binary_e_option_search():
    V = VarSet(("x0", "x1"))
    cases = [
        (mono(V, (1, 1)), 2, "x1"),            # pencil member x1^2 splits
        (mono(V, (4, 1)), 5, "x1"),            # square generator x1^2
        (mono(V, (3, 0)) + mono(V, (0, 3)), 2, "x0 - x1"),
    ]
    for f, rank, t_str in cases:
        # the first two are monomials, so the Binary engine is run directly
        found = ENGINES["Binary"](f, FamilyMatch("Binary", {}, ""), 0, 1)
        _, options = found.block()
        assert 1 in options
        assert str(options[1][1]) == t_str
        assert found.rank == rank


def divisor_roots(p):
    """The rational roots of p by the rational root theorem, in the order
    of a search over (numerator, denominator, sign) divisor pairs."""
    _, ints = clear_denominators(p)

    def divisors(n):
        return [k for k in range(1, abs(n) + 1) if n % k == 0]

    seen, found = set(), []
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                if r not in seen:
                    seen.add(r)
                    if uni_eval(p, r) == 0:
                        found.append(r)
    return found


def test_rational_roots_match_the_divisor_search():
    # products of rational linear factors, some repeated, times a random
    # cofactor, with denominators
    rng = random.Random(23)
    nonzero = [c for c in range(-6, 7) if c]
    for _ in range(300):
        p = (Fraction(rng.choice(nonzero)),)
        for _ in range(rng.randint(0, 3)):
            p = uni_mul(p, (Fraction(rng.choice(nonzero)),
                            Fraction(rng.choice(nonzero))))
        if rng.random() < 0.5:
            p = uni_mul(p, uni_trim([rng.choice(nonzero)]
                                    + [rng.randint(-5, 5) for _ in range(2)]
                                    + [rng.randint(1, 5)]))
        p = uni_trim(c / rng.choice([1, 2, 3]) for c in p)
        if len(p) >= 2:
            assert _rational_roots(p) == divisor_roots(p), p


@pytest.mark.parametrize("form", ["x^3 + 1234567*x*y^2 + y^3 + z^3",
                                  "x^3 + 987654321*x^2*y + y^3 + z^3"])
def test_binary_block_with_a_large_coefficient(form):
    # the contractions come from exact rational roots, not from a search
    # over the divisors of the coefficients
    report = strassen_rank(parse_poly(form))
    assert report.verdict == "certified"
    assert report.total_rank == 3
    assert report.summands[0].family == "Binary"


def test_vandermonde_block_is_recognized_before_reduction():
    v3 = build_vandermonde(3)
    V = VarSet(("w",) + v3.varset.names)
    f = mono(V, (3, 0, 0, 0)) + embed_in_varset(v3, V, (1, 2, 3))
    report = strassen_rank(f)
    assert report.verdict == "certified"
    assert report.total_rank == 3
    vdm = report.summands[1]
    assert vdm.family == "Vandermonde"
    assert vdm.rank == 2
    # sigma_1 lies in the annihilator, so only two variables are essential
    assert vdm.essential == 2


def test_ci_block_with_least_exponent_one_monomial_is_conditional():
    V = VarSet(("x", "y", "z", "y0", "y1", "y2"))
    f = degree_11_ci_block(V) + mono(V, (0, 0, 0, 1, 4, 6))
    B = VarSet(("x", "y", "z"))
    q = mono(B, (2, 0, 0)) + mono(B, (0, 2, 0)) + mono(B, (0, 0, 2))
    report = strassen_rank(f, hints={0: ("ci", q, 2)})
    assert report.verdict == "conditional"
    assert report.total_rank is None
    assert report.interval == (60, 60)
    assert report.shared_e is None
    assert [s.e_options for s in report.summands] == [(2,), (1,)]
    assert OPEN_PAIRING_QUESTION in report.notes
    assert any("unconditional lower bound" in n for n in report.notes)


def test_ci_block_with_matching_monomial_certifies_at_e_two():
    V = VarSet(("x", "y", "z", "y0", "y1", "y2"))
    f = degree_11_ci_block(V) + mono(V, (0, 0, 0, 3, 4, 4))
    B = VarSet(("x", "y", "z"))
    q = mono(B, (2, 0, 0)) + mono(B, (0, 2, 0)) + mono(B, (0, 0, 2))
    report = strassen_rank(f, hints={0: ("ci", q, 2)})
    assert report.verdict == "certified"
    assert report.shared_e == 2
    assert report.total_rank == 50
    assert [s.rank for s in report.summands] == [25, 25]
    assert all(s.perp_e_zero for s in report.summands)


def test_block_of_unknown_rank_yields_interval():
    g0 = build_xa_sum_b(1, 3, 5)
    V = VarSet(g0.varset.names + ("z",))
    f = embed_in_varset(g0, V, tuple(range(6))) + mono(V, (0,) * 6 + (4,))
    report = strassen_rank(f)
    assert report.verdict == "failed"
    assert report.total_rank is None
    assert report.interval == (14, 16)
    assert report.summands[0].rank is None
    assert report.summands[0].bounds == (13, 15)
    assert any("assumes additivity" in n for n in report.notes)


def test_requested_e_is_honored_or_reported():
    V = VarSet(("x", "y"))
    f = mono(V, (5, 0)) + mono(V, (0, 5))
    assert strassen_rank(f, e=2).shared_e == 2
    report = strassen_rank(f, e=4)
    assert report.verdict == "conditional"
    assert report.interval == (2, 2)
    assert any("e = 4" in n for n in report.notes)


def test_strassen_validation():
    V = VarSet(("x", "y"))
    with pytest.raises(ZeroForm):
        strassen_rank(Poly(V, {}, QQ))
    with pytest.raises(MixedDegrees):
        strassen_rank(mono(V, (2, 0)) + mono(V, (0, 3)))
    with pytest.raises(EOutOfRange):
        strassen_rank(mono(V, (1, 1)), e=0)


def test_report_dict_layout():
    V = VarSet(("x0", "x1", "y0", "y1", "y2"))
    f = mono(V, (2, 1, 0, 0, 0)) + mono(V, (0, 0, 1, 1, 1))
    out = strassen_rank(f).as_dict()
    assert list(out) == ["form", "summands", "shared_e", "checks",
                         "verdict", "total_rank", "interval", "notes",
                         "citations"]
    assert out["verdict"] == "certified"
    assert out["total_rank"] == 7
    assert out["interval"] == [7, 7]
    first = out["summands"][0]
    assert list(first) == ["form", "block", "family", "certificate",
                           "rank", "bounds", "e_options", "e_used",
                           "essential_variables", "checks"]
    assert first["checks"]["disjoint"] is True


def test_lemma52_single_witness_reproduces_rank_times_e():
    V = VarSet(("x0", "x1", "x2"))
    xyz = mono(V, (1, 1, 1))
    t = Poly.variable(V, 0)
    report = lemma52_hf_check([(xyz, [t], t)])
    assert report.ok
    assert bool(report)
    assert report.joint_values == (1, 2, 1, 0, 0)
    assert report.joint_total == 4
    assert report.joint_bound == 4


def test_lemma52_two_binary_cubics():
    # certifying witnesses: t = X0 - X1 for the sum of cubes, t = Y1 for
    # the monomial; totals 2 and 3 merge to 2 + 3 - 1
    V = VarSet(("x0", "x1", "y0", "y1"))
    f1 = mono(V, (3, 0, 0, 0)) + mono(V, (0, 3, 0, 0))
    f2 = mono(V, (0, 0, 2, 1))
    t1 = Poly.variable(V, 0) - Poly.variable(V, 1)
    t2 = Poly.variable(V, 3)
    report = lemma52_hf_check([(f1, [t1], t1), (f2, [t2], t2)])
    assert report.ok
    assert report.summand_totals == (2, 3)
    assert report.expected_total == 4
    assert report.joint_total == 4
    assert report.joint_bound == 4


def test_lemma52_three_pure_powers():
    V = VarSet(("x", "y", "z"))
    triples = []
    for i in range(3):
        t = Poly.variable(V, i)
        triples.append((Poly.variable(V, i, 4), [t], t))
    report = lemma52_hf_check(triples)
    assert report.ok
    assert report.joint_total == 1
    assert report.expected_total == 1
    assert report.joint_bound == 1


def test_lemma52_validation():
    V = VarSet(("x", "y"))
    W = VarSet(("x", "z"))
    x = Poly.variable(V, 0)
    y = Poly.variable(V, 1)
    with pytest.raises(EmptyGeneratorList):
        lemma52_hf_check([])
    with pytest.raises(ZeroForm):
        lemma52_hf_check([(Poly(V, {}, QQ), [x], x)])
    with pytest.raises(FieldMismatch):
        lemma52_hf_check([(mono(V, (2, 0)), [x], x),
                          (Poly.monomial(W, (0, 2)), [x], x)])
    with pytest.raises(MixedDegrees):
        lemma52_hf_check([(mono(V, (2, 0)), [x], x),
                          (mono(V, (0, 3)), [y], y)])
    # shared support
    with pytest.raises(DegreeMismatch):
        lemma52_hf_check([(mono(V, (2, 0)), [x], x),
                          (mono(V, (1, 1)), [y], y)])
    # mismatched witness degrees
    U = VarSet(("x", "y", "u", "v"))
    with pytest.raises(DegreeMismatch):
        lemma52_hf_check([(Poly.monomial(U, (2, 2, 0, 0)),
                           [Poly.variable(U, 0)], Poly.variable(U, 0)),
                          (Poly.monomial(U, (0, 0, 2, 2)),
                           [Poly.variable(U, 2, 2)],
                           Poly.variable(U, 2, 2))])


def _seeded_block(rng, prefix, d):
    """A power of a linear form, x^a * (y^b + z^b) with b >= 2 or a
    monomial, of degree d in variables named prefix0, prefix1, .."""
    kind = rng.randrange(3)
    if kind == 0:
        return f"({prefix}0 + {rng.randint(1, 3)}*{prefix}1)^{d}"
    if kind == 1 and d >= 3:
        a = rng.randint(1, d - 2)
        return f"{prefix}0^{a}*({prefix}1^{d - a} + {prefix}2^{d - a})"
    cut = rng.randint(1, d - 1)
    return f"{prefix}0^{cut}*{prefix}1^{d - cut}"


@pytest.mark.parametrize("expr, ranks", [
    ("x0*(x1 + x2) + y0*y1", (2, 2)),
    ("x0^2*(x1 + x2)^3 + y0^5", (4, 1)),
])
def test_block_with_redundant_variables_is_analyzed_in_its_essential_ones(
        expr, ranks):
    # x0*(x1 + x2)^k is the monomial x0*x1^k in two essential variables,
    # so the block has the monomial's e options and the sum certifies
    report = strassen_rank(parse_poly(expr))
    assert report.verdict == "certified"
    assert report.shared_e == 1
    assert report.total_rank == sum(ranks)
    first = report.summands[0]
    assert first.block == ("x0", "x1", "x2")
    assert (first.family, first.essential) == ("Monomial", 2)
    assert tuple(s.rank for s in report.summands) == ranks
    assert all(s.perp_e_zero for s in report.summands)


def test_perp_e_zero_matches_the_annihilator_slice():
    # strassen reads perp-e-zero off one catalecticant rank; here it is the
    # dimension of the degree-e slice of the reduced form's annihilator
    rng = random.Random(131)
    checked = 0
    for _ in range(10):
        d = rng.randint(2, 5)
        expr = " + ".join(_seeded_block(rng, p, d)
                          for p in ("x", "y", "z")[:rng.randint(2, 3)])
        report = strassen_rank(parse_poly(expr), seed=rng.randrange(100))
        for s in report.summands:
            if s.e_used is None:
                continue
            change, full = essential_vars(s.form)
            red = restrict_to_vars(
                full, tuple(range(len(full.varset) - change.removed)))
            assert s.perp_e_zero == (perp(red).slices[s.e_used].dim == 0), \
                (expr, s.block)
            checked += 1
    assert checked >= 10
