"""Expression parser for polynomial input.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := variable | rational | '(' expr ')'

Variables match [a-zA-Z][a-zA-Z0-9_]*, rationals are "p" or "p/q" with
nonnegative integer p, q. Multiplication by juxtaposition is not part of
the grammar: "2x" and "x y" are syntax errors. A single leading minus is
accepted at the start of an expression or parenthesized subexpression,
negating its first term, so printed polynomials parse back; there is no
general unary minus. Parentheses nest at most MAX_NESTING deep; deeper
input is a ParseError, not a stack overflow.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, UnknownVariable
from .fields import QQ, NumberField
from .poly import Poly, VarSet

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_BODY = _NAME_START | set("0123456789_")
_DIGITS = set("0123456789")
# each nesting level costs four stack frames (expr, term, factor, base), so
# this stays well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 150


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c in _NAME_START:
            j = i + 1
            while j < len(text) and text[j] in _NAME_BODY:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in _DIGITS:
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            if j < len(text) and text[j] == "/":
                k = j + 1
                if k >= len(text) or text[k] not in _DIGITS:
                    raise ParseError("expected digits after '/'", j + 1)
                m = k
                while m < len(text) and text[m] in _DIGITS:
                    m += 1
                den = int(text[k:m])
                if den == 0:
                    raise ParseError("zero denominator", k)
                tokens.append(("number", Fraction(num, den), i))
                i = m
            else:
                tokens.append(("number", Fraction(num), i))
                i = j
            continue
        if c in "+-*^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _collect_names(tokens, skip: set) -> list[str]:
    seen = []
    for kind, value, _ in tokens:
        if kind == "name" and value not in skip and value not in seen:
            seen.append(value)
    return seen


def _alias(name: str, names) -> str | None:
    # uppercase contraction operators act on the lowercase primal ring
    if name in names:
        return name
    swapped = (name[0].lower() if name[0].isupper() else name[0].upper()) \
        + name[1:]
    if swapped in names:
        return swapped
    return None


class _Parser:
    def __init__(self, tokens, varset: VarSet, field, gen_name: str | None,
                 alias: bool):
        self.tokens = tokens
        self.pos = 0
        self.varset = varset
        self.field = field
        self.gen_name = gen_name
        self.alias = alias
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def constant(self, value: Fraction) -> Poly:
        coeff = self.field.from_rational(value)
        exps = (0,) * len(self.varset)
        return Poly.monomial(self.varset, exps, coeff, self.field)

    def expr(self) -> Poly:
        # a single leading minus negating the first term keeps printed
        # polynomials parseable; there is no general unary minus
        negate = False
        if self.peek()[0] == "-":
            self.take("-")
            negate = True
        out = self.term()
        if negate:
            out = self.constant(Fraction(-1)) * out
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            rhs = self.term()
            out = out + rhs if op[0] == "+" else out - rhs
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            out = out * self.factor()
        return out

    def factor(self) -> Poly:
        base = self.base()
        if self.peek()[0] == "^":
            self.take("^")
            tok = self.take("number")
            exp = tok[1]
            if exp.denominator != 1 or exp < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 tok[2])
            return base ** int(exp)
        return base

    def base(self) -> Poly:
        kind, value, position = self.peek()
        if kind == "number":
            self.take("number")
            return self.constant(value)
        if kind == "name":
            self.take("name")
            if value == self.gen_name:
                gen = self.field.gen()
                exps = (0,) * len(self.varset)
                return Poly.monomial(self.varset, exps, gen, self.field)
            name = _alias(value, self.varset.names) if self.alias else (
                value if value in self.varset.names else None)
            if name is None:
                raise UnknownVariable(
                    f"variable {value!r} is not in the variable set "
                    f"{list(self.varset.names)}")
            return Poly.variable(self.varset, self.varset.names.index(name),
                                 field=self.field)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", position)
            self.take("(")
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a variable, number, or '(', found "
                         f"{kind}", position)


def parse_poly(text: str, varnames=None, field=None,
               gen_name: str | None = None, alias: bool = False) -> Poly:
    """Parse an expression into a Poly.

    varnames fixes the variable order and set; without it variables are
    taken in first-occurrence order. field and gen_name declare an
    extension whose generator symbol acts as a scalar. alias=True lets a
    name match after swapping the case of its first letter, so contraction
    operators written in uppercase resolve against a lowercase ring.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 0)
    field = field or QQ
    skip = {gen_name} if gen_name else set()
    if varnames is None:
        names = _collect_names(tokens, skip)
        if not names:
            names = ["x"]
        varset = VarSet(tuple(names))
    elif isinstance(varnames, VarSet):
        varset = varnames
    else:
        try:
            varset = VarSet(tuple(varnames))
        except ValueError as err:
            raise ParseError(str(err), 0) from None
    parser = _Parser(tokens, varset, field, gen_name, alias)
    out = parser.expr()
    parser.take("end")
    return out


def parse_extension(spec: str) -> tuple[str, NumberField]:
    """Build a NumberField from "name: minimal polynomial" text.

    The minimal polynomial is univariate in the declared name, for
    example "z: z^2 + z + 1".
    """
    if ":" not in spec:
        raise ParseError("extension needs the form 'name: polynomial'", 0)
    name, _, body = spec.partition(":")
    name = name.strip()
    if not name or name[0] not in _NAME_START \
            or any(c not in _NAME_BODY for c in name):
        raise ParseError(f"invalid generator name {name!r}", 0)
    uni = parse_poly(body, varnames=(name,))
    # the minimal polynomial is not homogeneous, so read degrees directly
    degree = max((exps[0] for exps in uni.terms), default=0)
    coeffs = [Fraction(0)] * (degree + 1)
    for exps, c in uni.terms.items():
        coeffs[exps[0]] = c.as_fraction()
    return name, NumberField(name, coeffs)
