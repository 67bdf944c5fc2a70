import random
from fractions import Fraction

import pytest
from conftest import uni_xgcd_oracle

from apolarity.errors import (
    InvalidExtension,
    NotInvertible,
    ZeroForm,
    ZeroInversion,
)
from apolarity.fields import (
    QQ,
    FieldElement,
    NumberField,
    cyclotomic,
    cyclotomic_field,
    field_invert,
    root_of_unity,
    roots_of_unity,
    squarefree_check,
    uni_degree,
    uni_divmod,
    uni_gcd,
    uni_mul,
    uni_to_string,
    uni_trim,
    uni_xgcd,
)


def test_rational_backend_is_reduced_with_positive_denominator():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(2, 4) + Fraction(1, 4) == Fraction(3, 4)


class TestUnivariate:
    def test_trim_and_degree(self):
        assert uni_trim([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
        assert uni_degree(()) == -1

    def test_divmod_roundtrip(self):
        p = uni_trim([1, 0, -3, 1, 2])
        q = uni_trim([2, 1, 1])
        quot, rem = uni_divmod(p, q)
        assert uni_trim(
            [a + b for a, b in zip(
                list(uni_mul(quot, q)) + [Fraction(0)] * 5,
                list(rem) + [Fraction(0)] * 5)]
        ) == p
        assert uni_degree(rem) < uni_degree(q)

    def test_gcd_against_known_factorization(self):
        # (z+1)^2 (z-2) and (z+1)(z+3) share exactly z+1
        a = uni_mul(uni_mul((1, 1), (1, 1)), (-2, 1))
        b = uni_mul((1, 1), (3, 1))
        assert uni_gcd(a, b) == (Fraction(1), Fraction(1))

    def test_xgcd_matches_oracle(self):
        p = uni_trim([3, 1, 0, 2])
        q = uni_trim([1, -1, 1])
        g, u, v = uni_xgcd(p, q)
        og, ou = uni_xgcd_oracle(list(p), list(q))
        assert list(g) == og
        assert list(u) == ou
        # Bezout identity holds exactly
        lhs = uni_mul(u, p)
        rhs = uni_mul(v, q)
        total = uni_trim([a + b for a, b in zip(
            list(lhs) + [Fraction(0)] * 8, list(rhs) + [Fraction(0)] * 8)])
        assert total == g

    def test_squarefree_check_examples(self):
        assert squarefree_check([1, 1, 1, 1])  # (X+1)(X^2+1)
        assert not squarefree_check([0, 0, 1])  # X^2
        assert squarefree_check([-1, 0, 1])  # X^2 - 1
        with pytest.raises(ZeroForm):
            squarefree_check([0, 0])

    def test_rendering(self):
        assert uni_to_string((Fraction(1), Fraction(-1)), "z") == "-z + 1"
        assert uni_to_string((Fraction(0), Fraction(2, 3)), "z") == "2/3*z"
        assert uni_to_string((), "z") == "0"


class TestCyclotomic:
    def test_small_indices(self):
        assert cyclotomic(1) == (Fraction(-1), Fraction(1))
        assert cyclotomic(2) == (Fraction(1), Fraction(1))
        assert cyclotomic(3) == (Fraction(1), Fraction(1), Fraction(1))
        assert cyclotomic(4) == (Fraction(1), Fraction(0), Fraction(1))
        assert cyclotomic(6) == (Fraction(1), Fraction(-1), Fraction(1))

    def test_degree_is_euler_phi(self):
        assert uni_degree(cyclotomic(30)) == 8
        assert uni_degree(cyclotomic(12)) == 4

    def test_product_over_divisors_rebuilds_z_m_minus_1(self):
        m = 12
        prod = (Fraction(1),)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = uni_mul(prod, cyclotomic(d))
        assert prod == uni_trim([-1] + [0] * (m - 1) + [1])

    def test_field_equals_checked_constructor(self):
        # cyclotomic_field skips the squarefree check of NumberField, which
        # stays the oracle: every slot of the two fields agrees
        for m in range(3, 41):
            for name in ("z", "w"):
                fast = cyclotomic_field(m, name)
                checked = NumberField(name, cyclotomic(m))
                assert fast == checked and hash(fast) == hash(checked)
                for slot in NumberField.__slots__:
                    assert getattr(fast, slot) == getattr(checked, slot)
        assert cyclotomic_field(1) is QQ and cyclotomic_field(2) is QQ


class TestNumberField:
    def test_rationals_singleton(self):
        assert QQ.is_rationals()
        a = QQ.from_rational(Fraction(2, 3))
        assert (a + a).as_fraction() == Fraction(4, 3)
        assert (a * a).as_fraction() == Fraction(4, 9)

    def test_invalid_minimal_polynomials(self):
        with pytest.raises(InvalidExtension):
            NumberField("z", [1, 1, 2])  # 2z^2+z+1 is not monic
        with pytest.raises(InvalidExtension):
            NumberField("z", [1, 2, 1])  # (z+1)^2 is not squarefree
        with pytest.raises(InvalidExtension):
            NumberField("z", [5])  # constant

    def test_inverse_in_eisenstein_field(self):
        # frozen via the extended Euclid oracle: (1+z)^-1 mod z^2+z+1 is -z
        field = NumberField("z", [1, 1, 1])
        a = field.element([1, 1])
        g, u = uni_xgcd_oracle([1, 1], [1, 1, 1])
        assert g == [Fraction(1)]
        assert u == [Fraction(0), Fraction(-1)]
        inv = field_invert(a)
        assert inv == field.element([0, -1])
        assert a * inv == field.one

    def test_zero_inversion(self):
        field = NumberField("z", [1, 1, 1])
        with pytest.raises(ZeroInversion):
            field.zero.inverse()

    def test_lazy_zero_divisor_detection(self):
        # z^2 - 1 is squarefree but splits; inverting z-1 must surface a factor
        field = NumberField("z", [-1, 0, 1])
        a = field.element([-1, 1])
        b = field.element([1, 1])
        assert a * b == field.zero  # zero divisors exist quietly
        with pytest.raises(NotInvertible) as err:
            a.inverse()
        assert err.value.factor is not None
        assert uni_degree(err.value.factor) >= 1

    def test_arithmetic_mod_sqrt2(self):
        field = NumberField("z", [-2, 0, 1])
        z = field.gen()
        assert z * z == field.from_rational(2)
        assert (1 + z) * (1 - z) == field.from_rational(-1)
        assert (z / 2) * z == field.one

    def test_pow_and_str(self):
        field = NumberField("z", [1, 1, 1])
        z = field.gen()
        assert z ** 3 == field.one
        assert str(z ** 2) == "-z - 1"

    def test_root_of_unity_powers(self):
        field = cyclotomic_field(6)
        for k in range(6):
            w = root_of_unity(field, 6, k)
            assert w ** 6 == field.one
        assert root_of_unity(field, 6, 3) == field.from_rational(-1)
        assert cyclotomic_field(2) is QQ
        assert root_of_unity(QQ, 2, 1) == QQ.from_rational(-1)

    def test_element_ops_mixed_with_ints(self):
        field = NumberField("z", [1, 0, 1])
        z = field.gen()
        assert 2 * z - z == z
        assert (3 + z) - 3 == z
        assert 1 / z == -z

    def test_field_equality_by_data(self):
        f1 = NumberField("z", [1, 1, 1])
        f2 = NumberField("z", [1, 1, 1])
        assert f1 == f2
        assert f1.element([1, 2]) == f2.element([1, 2])


def test_field_element_hashable():
    field = NumberField("z", [1, 1, 1])
    seen = {field.gen(), field.gen() ** 2, field.one}
    assert len(seen) == 3
    assert field.gen() in seen


def schoolbook(field, a, b):
    """a*b as the full convolution of coordinates, reduced by the minimal
    polynomial with uni_divmod."""
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    rem = uni_divmod(uni_trim(conv), field.minpoly)[1]
    return rem + (Fraction(0),) * (field.degree - len(rem))


def seeded_operands(rng, n):
    """Coordinate tuples of length n: dense, sparse, zero, one nonzero."""
    def value():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    dense = tuple(value() for _ in range(n))
    sparse = tuple(value() if rng.random() < 0.3 else Fraction(0)
                   for _ in range(n))
    single = [Fraction(0)] * n
    single[rng.randrange(n)] = Fraction(rng.choice([-3, 1, 7]), 2)
    rational = (value(),) + (Fraction(0),) * (n - 1)
    return [dense, sparse, (Fraction(0),) * n, tuple(single), rational]


class TestSparseProduct:
    FIELDS = ([cyclotomic_field(m) for m in range(3, 61)]
              + [NumberField("z", [-2, 0, 1]), NumberField("z", [-1, -1, 0, 1])])

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_mul_coords_against_schoolbook(self, field):
        rng = random.Random(field.degree * 1009 + len(field.minpoly))
        ops = seeded_operands(rng, field.degree)
        for a in ops:
            for b in ops:
                assert field.mul_coords(a, b) == schoolbook(field, a, b)

    def test_roots_of_unity_step_by_zeta(self):
        # 105 = 3*5*7 and 210: Phi_m with coefficients other than 0, +-1
        for m in [*range(3, 61), 105, 210]:
            field = cyclotomic_field(m)
            roots, z = roots_of_unity(field, m), field.gen()
            assert roots[0] == field.one
            for k in range(m):
                assert roots[k] * z == roots[(k + 1) % m]
