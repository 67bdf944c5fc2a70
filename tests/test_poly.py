import random
from fractions import Fraction
from math import factorial, prod

import pytest

from apolarity.errors import (FieldMismatch, NonHomogeneous, VarSetMismatch,
                              ZeroForm)
from apolarity.fields import QQ, NumberField, cyclotomic_field, root_of_unity
from apolarity.poly import (
    Poly,
    _basis,
    _power_values,
    VarSet,
    apolar_action,
    embed_in_varset,
    linear_form,
    monomial_basis,
    power_of_linear,
    restrict_to_vars,
    space_dim,
    split_disjoint,
)

V2 = VarSet(["x0", "x1"])
V3 = VarSet(["x0", "x1", "x2"])


def P(varset, terms, field=QQ):
    return Poly(varset, terms, field)


class TestBasics:
    def test_monomial_basis_order(self):
        assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert monomial_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert len(monomial_basis(3, 4)) == space_dim(3, 4) == 15

    def test_monomial_basis_is_a_fresh_list_over_the_cached_basis(self):
        first = monomial_basis(2, 2)
        first.append((9, 9))
        assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert monomial_basis(2, 2) is not monomial_basis(2, 2)
        assert _basis(2, 2) is _basis(2, 2)
        assert list(_basis(4, 3)) == monomial_basis(4, 3)
        with pytest.raises(ValueError):
            monomial_basis(0, 2)

    def test_basis_matches_recursive_definition(self):
        # the lex-descending tuples of the recursive definition: the first
        # exponent runs down, and each value heads the basis of the rest
        def recursive(nvars, degree):
            if nvars == 1:
                return [(degree,)]
            return [(e,) + rest for e in range(degree, -1, -1)
                    for rest in recursive(nvars - 1, degree - e)]

        for nvars in range(1, 6):
            for degree in range(9):
                assert _basis(nvars, degree) == tuple(recursive(nvars,
                                                                degree))
        assert _basis(2, 2000) == tuple(recursive(2, 2000))
        with pytest.raises(ValueError):
            _basis(2, -1)

    def test_degree_and_homogeneity(self):
        f = P(V2, {(2, 0): 1, (0, 2): -1})
        assert f.degree() == 2 and f.is_homogeneous()
        g = P(V2, {(2, 0): 1, (1, 0): 1})
        assert not g.is_homogeneous()
        with pytest.raises(NonHomogeneous):
            g.degree()
        with pytest.raises(ZeroForm):
            Poly.zero(V2).degree()

    def test_ring_ops(self):
        f = P(V2, {(1, 0): 1})
        g = P(V2, {(0, 1): 1})
        assert (f + g) * (f - g) == P(V2, {(2, 0): 1, (0, 2): -1})
        assert (f + g) ** 2 == P(V2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert f - f == Poly.zero(V2)
        assert 3 * f == f.scale(3)

    @pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)])
    def test_power_is_the_repeated_product(self, field):
        # ** expands a linear base by the multinomial theorem over the
        # variables it uses and multiplies any other base one factor at a
        # time; both are compared with the product written out, with
        # squaring, with power_of_linear and with the parser's (..)^k
        from apolarity.parser import parse_poly

        z = field.gen()
        V5 = VarSet([f"y{i}" for i in range(5)])
        V12 = VarSet([f"x{i}" for i in range(12)])
        base = P(V3, {(1, 0, 0): 1, (0, 1, 0): z, (0, 0, 1): Fraction(-2, 3)},
                 field)
        dense = base * base + P(V3, {(1, 1, 0): 3}, field)
        # a linear form on two of five variables, written with zero
        # coefficients, one whose terms run against the variable order,
        # and one variable among twelve
        subset = linear_form(V5, [0, z + 2, 0, Fraction(-2, 3), 0], field)
        backwards = P(V3, {(0, 0, 1): 5, (1, 0, 0): z - 1}, field)
        single = Poly.variable(V12, 7, field=field)
        others = [dense, P(V3, {(0, 2, 1): z}, field),
                  Poly.constant(V3, Fraction(-3, 2), field),
                  Poly.constant(V3, z, field),            # the generator
                  P(V3, {(1, 0, 0): 1, (0, 0, 0): 1}, field),   # x0 + 1
                  Poly.zero(V3, field)]
        for g in [base, subset, backwards, single] + others:
            one = Poly.constant(g.varset, 1, field)
            for k in range(8):
                product = one
                for _ in range(k):
                    product = product * g
                squared, rest, acc = g, k, one
                while rest:
                    if rest & 1:
                        acc = acc * squared
                    squared, rest = squared * squared, rest >> 1
                assert g ** k == product == acc
        for g in (base, subset, backwards, single):
            assert g ** 7 == power_of_linear(g, 7)
        text = "(x0 + 2*x1 - 1/3*x2)"
        f = parse_poly(text, varnames=V3.names)
        assert parse_poly(text + "^6", varnames=V3.names) == f ** 6
        with pytest.raises(ValueError):
            base ** -1

    def test_constructor_checks_and_cleans_its_terms(self):
        with pytest.raises(ValueError):
            P(V2, {(2, -1): 1})
        for exps in [(1, 1, 0), (2,)]:
            with pytest.raises(ValueError):
                P(V2, {exps: 1})

        class Pairs(list):
            """(exponents, coefficient) pairs read as a dict's items."""
            def items(self):
                return iter(self)

        f = P(V2, Pairs([([1, 1], 3), (range(2, -1, -2), 1)]))
        assert list(f.terms) == [(1, 1), (2, 0)]
        assert all(type(e) is tuple for e in f.terms)
        z5 = cyclotomic_field(5)
        with pytest.raises(FieldMismatch):
            P(V2, {(1, 1): cyclotomic_field(7).gen()}, z5)
        with pytest.raises(FieldMismatch):
            P(V2, {(1, 1): z5.gen()})
        assert P(V2, {(1, 1): 3, (2, 0): 0, (0, 2): Fraction(0)}).terms \
            == {(1, 1): QQ.from_rational(3)}
        g = P(V2, {(2, 0): z5.gen(), (1, 1): z5.zero, (0, 2): 0}, z5)
        assert g.terms == {(2, 0): z5.gen()}
        assert P(V2, {(2, 0): z5.element([1, -1]) - z5.element([1, -1])},
                 z5).is_zero()

    def test_varset_mismatch(self):
        with pytest.raises(VarSetMismatch):
            P(V2, {(1, 0): 1}) + P(V3, {(1, 0, 0): 1})

    def test_vector_roundtrip(self):
        f = P(V3, {(2, 0, 0): 1, (1, 1, 0): Fraction(1, 2), (0, 0, 2): -3})
        assert Poly.from_vector(V3, 2, f.to_vector()) == f

    def test_evaluate(self):
        f = P(V2, {(2, 0): 1, (1, 1): 1})
        assert f.evaluate([2, 3]).as_fraction() == 10

    def test_str_is_deterministic(self):
        f = P(V2, {(1, 1): -2, (2, 0): 1, (0, 2): Fraction(1, 2)})
        assert str(f) == "x0^2 - 2*x0*x1 + 1/2*x1^2"


class TestApolarAction:
    def test_partial_derivatives(self):
        f = P(V2, {(3, 0): 1})  # x0^3
        x0 = Poly.variable(V2, 0)
        assert apolar_action(x0, f) == P(V2, {(2, 0): 3})
        assert apolar_action(x0 * x0, f) == P(V2, {(1, 0): 6})

    def test_mixed_monomial_action(self):
        f = P(V3, {(2, 1, 0): 1})  # x0^2 x1
        g = P(V3, {(1, 1, 0): 1})  # X0 X1
        assert apolar_action(g, f) == P(V3, {(1, 0, 0): 2})
        assert apolar_action(P(V3, {(0, 0, 1): 1}), f).is_zero()

    def test_action_drops_degree_or_kills(self):
        f = P(V2, {(1, 1): 1})
        g = P(V2, {(2, 0): 1})
        assert apolar_action(g, f).is_zero()

    def test_bilinearity_sample(self):
        f = P(V2, {(3, 0): 1, (0, 3): 2})
        g1 = P(V2, {(1, 0): 1})
        g2 = P(V2, {(0, 1): Fraction(1, 3)})
        lhs = apolar_action(g1 + g2, f)
        assert lhs == apolar_action(g1, f) + apolar_action(g2, f)

    def test_composition_sample(self):
        f = P(V2, {(2, 2): 1})
        g = P(V2, {(1, 0): 1})
        h = P(V2, {(0, 1): 1})
        assert apolar_action(g, apolar_action(h, f)) == apolar_action(g * h, f)

    def test_contraction_constant_on_powers(self):
        # X0^2 acting on x0^3 gives 3!/(3-2)! x0 = 6 x0, pinning the constant
        f = P(V2, {(3, 0): 1})
        g = P(V2, {(2, 0): 1})
        assert apolar_action(g, f) == P(V2, {(1, 0): 6})

    def test_rational_action_matches_falling_factorial_oracle(self):
        # over QQ with non-integer coefficients, including sums that cancel
        # to zero: each pair of terms contributes c_a c_b prod b!/(b-a)!
        rng = random.Random(16)
        coeffs = (Fraction(-5, 7), Fraction(1, 3), Fraction(9, 4), 2, -1)
        cases = [(P(V2, {(1, 0): 1, (0, 1): -1}),
                  P(V2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(2, 3),
                         (0, 2): Fraction(1, 3)}))]
        for n in (1, 2, 3, 4):
            vs = VarSet([f"x{k}" for k in range(n)])

            def form():
                return P(vs, {tuple(rng.randint(0, 3) for _ in range(n)):
                              rng.choice(coeffs)
                              for _ in range(rng.randint(0, 5))})
            cases += [(form(), form()) for _ in range(15)]
        for g, f in cases:
            want = {}
            for a, ca in g.terms.items():
                for b, cb in f.terms.items():
                    if all(x <= y for x, y in zip(a, b)):
                        s = prod(factorial(y) // factorial(y - x)
                                 for x, y in zip(a, b))
                        e = tuple(y - x for x, y in zip(a, b))
                        want[e] = (want.get(e, 0) + ca.as_fraction()
                                   * cb.as_fraction() * s)
            got = apolar_action(g, f)
            assert got == P(g.varset, want), (g, f)
            assert all(type(c.coords[0]) is Fraction
                       for c in got.terms.values())
        assert apolar_action(*cases[0]).is_zero()


class TestPowerOfLinear:
    def test_matches_repeated_multiplication(self):
        ell = linear_form(V2, [1, 2])
        by_products = ell * ell * ell
        assert power_of_linear(ell, 3) == by_products

    def test_trinomial(self):
        ell = linear_form(V3, [1, -1, Fraction(1, 2)])
        assert power_of_linear(ell, 4) == ell * ell * ell * ell

    def test_extension_coefficients(self):
        field = NumberField("z", [1, 1, 1])
        z = field.gen()
        ell = linear_form(V2, [field.one, z], field)
        assert power_of_linear(ell, 3) == ell * ell * ell

    def test_power_table_with_zero_coordinate(self):
        # coordinates zeta^7, 0, 2 - zeta^3 over Q(zeta_30), degree 8
        field = cyclotomic_field(30)
        z = field.gen()
        ell = linear_form(V3, [root_of_unity(field, 30, 7), field.zero,
                               z * z * z * -1 + 2], field)
        by_products = Poly.constant(V3, 1, field)
        for d in range(1, 10):
            by_products = by_products * ell
            if d >= 8:
                assert power_of_linear(ell, d) == by_products
        assert power_of_linear(ell, 0) == Poly.constant(V3, 1, field)

    @staticmethod
    def oracle_cases():
        """(field, coordinates): QQ with denominators and zero coordinates,
        and Q(zeta_5) with zero coordinates."""
        q = [Fraction(v) for v in (2, 0, Fraction(-3, 4), 0, Fraction(5, 7))]
        yield QQ, q[:3]
        yield QQ, [Fraction(0), Fraction(1, 3), Fraction(-2)]
        yield QQ, q
        yield QQ, [Fraction(-7, 2)]
        field = cyclotomic_field(5)
        z = field.gen()
        yield field, [z, field.zero, z * z * 3 - Fraction(1, 2), field.one]
        yield field, [field.zero, root_of_unity(field, 5, 4) + 2]

    def test_raw_columns_match_repeated_products(self):
        # L^d by d Poly products, against the raw multinomial columns,
        # power_of_linear and the plain products p^alpha of points_ideal
        for field, coords in self.oracle_cases():
            coords = [c if hasattr(c, "coords") else field.from_rational(c)
                      for c in coords]
            vs = VarSet(f"x{i}" for i in range(len(coords)))
            ell = linear_form(vs, coords, field)
            raw = [field.to_raw(c) for c in coords]
            ops = field.raw_ops()
            degrees = list(range(7))
            weighted = _power_values(raw, degrees, ops, field.raw_one,
                                     field.raw_zero, True)
            plain = _power_values(raw, degrees, ops, field.raw_one,
                                  field.raw_zero, False)
            by_products = Poly.constant(vs, 1, field)
            for d in degrees:
                basis = _basis(len(vs), d)
                assert [field.from_raw(v) for v in weighted[d]] == \
                    by_products.to_vector(d)
                assert power_of_linear(ell, d) == by_products
                for exps, v in zip(basis, plain[d]):
                    want = field.one
                    for c, e in zip(coords, exps):
                        want = want * c ** e
                    assert field.from_raw(v) == want
                by_products = by_products * ell
            # a single degree comes out alone, and ints work over QQ
            assert _power_values(raw, [5], ops, field.raw_one,
                                 field.raw_zero, True) == [weighted[5]]
        ints = _power_values([3, 0, -2], [4], QQ.raw_ops(), 1, 0, True)[0]
        ell = linear_form(V3, [3, 0, -2])
        assert ints == [c.as_fraction() for c in (ell * ell * ell * ell)
                        .to_vector(4)]
        assert all(type(v) is int for v in ints)

    def test_contraction_identity_sample(self):
        # g o L^d = d!/(d-delta)! g(a) L^(d-delta) for L = a0 x0 + a1 x1
        a = (Fraction(2), Fraction(-3))
        ell = linear_form(V2, a)
        d, delta = 5, 2
        g = P(V2, {(1, 1): 1, (2, 0): Fraction(1, 2)})
        lhs = apolar_action(g, power_of_linear(ell, d))
        const = Fraction(120, 6)  # 5!/3!
        rhs = power_of_linear(ell, d - delta).scale(g.evaluate(a) * const)
        assert lhs == rhs


class TestSplitting:
    def test_two_blocks(self):
        f = P(V3, {(1, 1, 0): 1, (0, 0, 2): -1})
        comps = split_disjoint(f)
        assert len(comps) == 2
        assert comps[0][1] == (0, 1) and comps[1][1] == (2,)
        assert comps[0][0] + comps[1][0] == f

    def test_shared_variable_single_block(self):
        f = P(V3, {(1, 2, 0): 1, (1, 0, 2): 1})  # x0 x1^2 + x0 x2^2
        comps = split_disjoint(f)
        assert len(comps) == 1
        assert comps[0][1] == (0, 1, 2)

    def test_pure_powers(self):
        f = P(V2, {(5, 0): 1, (0, 5): 1})
        comps = split_disjoint(f)
        assert [c[1] for c in comps] == [(0,), (1,)]

    def test_restrict_and_embed_roundtrip(self):
        f = P(V3, {(0, 2, 1): 1, (0, 0, 3): 2})
        small = restrict_to_vars(f, [1, 2])
        assert small.varset.names == ("x1", "x2")
        back = embed_in_varset(small, V3, [1, 2])
        assert back == f

    def test_substitute_linear_change(self):
        f = P(V2, {(2, 0): 1})  # x0^2
        reps = [linear_form(V2, [1, 1]), linear_form(V2, [0, 1])]
        assert f.substitute(reps) == P(V2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
