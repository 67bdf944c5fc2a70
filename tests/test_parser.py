"""Expression grammar: parsing, variable order, extensions, round trips."""

import random
from fractions import Fraction

import pytest

from apolarity.errors import (InvalidExtension, NonHomogeneous, ParseError,
                              UnknownVariable)
from apolarity.fields import cyclotomic_field
from apolarity.parser import parse_extension, parse_poly
from apolarity.poly import Poly, VarSet


def test_basic_expressions():
    f = parse_poly("x0^2*x1 + x1^3")
    assert f.varset.names == ("x0", "x1")
    assert f.is_homogeneous()
    assert f.degree() == 3
    assert len(f.terms) == 2

    g = parse_poly("x0*(x1^3 + x2^3)")
    exps = set(g.terms)
    assert exps == {(1, 3, 0), (1, 0, 3)}

    mixed = parse_poly("x0^2 + x1")
    assert not mixed.is_homogeneous()
    with pytest.raises(NonHomogeneous):
        mixed.degree()


def test_variable_order():
    first = parse_poly("y + x")
    assert first.varset.names == ("y", "x")
    declared = parse_poly("y + x", varnames=("x", "y", "z"))
    assert declared.varset.names == ("x", "y", "z")
    assert declared.terms == {(1, 0, 0): declared.field.one,
                              (0, 1, 0): declared.field.one}


def test_rational_literals_and_constants():
    f = parse_poly("3/4*x^2 - 2*x*y")
    assert f.coeff((2, 0)).as_fraction() == Fraction(3, 4)
    assert f.coeff((1, 1)).as_fraction() == -2
    c = parse_poly("7/2", varnames=("x",))
    assert c.coeff((0,)).as_fraction() == Fraction(7, 2)


def test_powers_and_parentheses():
    f = parse_poly("(x + y)^3")
    assert f.coeff((2, 1)).as_fraction() == 3
    one = parse_poly("x^0 + y", varnames=("x", "y"))
    assert one.coeff((0, 0)).as_fraction() == 1
    assert parse_poly("x^1") == parse_poly("x")


def test_leading_minus():
    f = parse_poly("-x^2 + y^2")
    assert f.coeff((2, 0)).as_fraction() == -1
    g = parse_poly("x - (-y + x)", varnames=("x", "y"))
    assert set(g.terms) == {(0, 1)}


def test_round_trip_random():
    rng = random.Random(11)
    fld = cyclotomic_field(4)
    for trial in range(120):
        n = rng.randint(1, 4)
        vs = VarSet(tuple(f"x{i}" for i in range(n)))
        use_ext = trial % 3 == 0
        f = None
        d = rng.randint(1, 4)
        for _ in range(rng.randint(1, 5)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 7)) or Fraction(1)
            if use_ext:
                coeff = fld.from_rational(q) + fld.gen() * fld.from_rational(
                    Fraction(rng.randint(-3, 3)))
                mono = Poly.monomial(vs, tuple(exps), coeff, fld)
            else:
                mono = Poly.monomial(vs, tuple(exps), q)
            f = mono if f is None else f + mono
        if f.is_zero():
            continue
        back = parse_poly(str(f), varnames=vs,
                          field=fld if use_ext else None,
                          gen_name="z" if use_ext else None)
        assert back == f


def test_juxtaposition_rejected():
    for bad in ("2x", "x y", "x(x + y)", "(x)(y)"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_syntax_errors_carry_positions():
    cases = {"": 0, "x +* y": 3, "x^": 2, "x^(2)": 2, "x/2": 1,
             "((x)": 4, "3/0": 2}
    for text, pos in cases.items():
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == pos


def test_unknown_variable_with_declared_order():
    with pytest.raises(UnknownVariable):
        parse_poly("x + q", varnames=("x", "y"))
    # without a declared order every name becomes a variable
    f = parse_poly("x + q")
    assert f.varset.names == ("x", "q")


def test_uppercase_alias():
    f = parse_poly("W^2 + X0*w", varnames=("w", "x0"), alias=True)
    assert set(f.terms) == {(2, 0), (1, 1)}
    with pytest.raises(UnknownVariable):
        parse_poly("W^2", varnames=("w", "x0"), alias=False)
    # exact matches win over the alias
    g = parse_poly("X + x", varnames=("x", "X"), alias=True)
    assert set(g.terms) == {(1, 0), (0, 1)}


def test_extension_field():
    name, fld = parse_extension("z: z^2 + z + 1")
    assert name == "z"
    assert fld.degree == 2
    f = parse_poly("(x + z*y)^2", varnames=("x", "y"), field=fld,
                   gen_name="z")
    zz = fld.gen() * fld.gen()
    assert f.coeff((0, 2)) == zz
    assert str(f.coeff((0, 2))) == "-z - 1"
    # the generator symbol never becomes a ring variable
    assert f.varset.names == ("x", "y")


def test_extension_validation():
    with pytest.raises(ParseError):
        parse_extension("z z^2 + 1")
    with pytest.raises(ParseError):
        parse_extension("9z: z^2 + 1")
    with pytest.raises(InvalidExtension):
        parse_extension("z: 2*z^2 + 1")
    with pytest.raises(InvalidExtension):
        parse_extension("z: z^2 + 2*z + 1")


def test_nesting_limit():
    from apolarity.parser import MAX_NESTING
    deep = "(" * 100 + "x0 + x1" + ")" * 100
    assert parse_poly(deep) == parse_poly("x0 + x1")
    edge = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(edge) == parse_poly("x")
    with pytest.raises(ParseError) as info:
        parse_poly("x*" + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
    assert info.value.position == 2 + MAX_NESTING
