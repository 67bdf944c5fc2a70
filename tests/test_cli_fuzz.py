"""Random small forms through every verb that takes one, and `vandermonde`.

Each form is a sum of one to three terms, each a power (a*x0 + b*x1 +
c*x2)^k of a linear form with small coefficients, some of them 0, or a
monomial of degree k, with k from 0 to 5; so constants, mixed degrees, the
zero form and unused variables all occur. `cat` draws --e from 0 to 3, and
every call runs with and without --json. Whatever the form, the CLI must
answer with an exit code documented for its verb (never 4), print no
traceback and at most one stderr line, an `error: ` line exactly when it
exits with 1.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from apolarity.cli import run  # noqa: E402

DATA = {0, 1}
EXIT_CODES = {"perp": DATA, "gens": DATA, "hf": DATA, "cat": DATA,
              "lb": DATA, "sylvester": DATA, "split": DATA, "reduce": DATA,
              "vandermonde": DATA, "rank": {0, 1, 2},
              "strassen": {0, 1, 2, 3}}
FORM_VERBS = sorted(set(EXIT_CODES) - {"vandermonde"})
NAMES = ("x0", "x1", "x2")



def _linear(coeffs):
    text = "".join(f" {'-' if c < 0 else '+'} {abs(c)}*{n}"
                   for c, n in zip(coeffs, NAMES))
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _monomial(exps):
    return "*".join(n if e == 1 else f"{n}^{e}"
                    for n, e in zip(NAMES, exps) if e) or "1"


@st.composite
def forms(draw):
    """One to three terms of the form's degree k, now and then one of its
    own degree, so most forms are homogeneous and some are not."""
    k = draw(st.integers(0, 5))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        d = k if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=3,
                                   max_size=3))
            terms.append(f"({_linear(coeffs)})^{d}")
        else:
            a, b = sorted(draw(st.lists(st.integers(0, d), min_size=2,
                                        max_size=2)))
            terms.append(_monomial((a, b - a, d - b)))
    return " + ".join(terms)


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check(verb, argv):
    code, out, err = _answer(argv)
    lines = err.splitlines()
    assert code in EXIT_CODES[verb], (argv, code, err)
    assert "Traceback" not in out + err
    assert len(lines) == (1 if code == 1 else 0), (argv, err)
    assert all(line.startswith("error: ") for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(verb=st.sampled_from(FORM_VERBS), form=forms(), e=st.integers(0, 3),
       as_json=st.booleans())
def test_random_forms_answer_cleanly(verb, form, e, as_json):
    argv = [verb, form] + (["--e", str(e)] if verb == "cat" else [])
    _check(verb, argv + ["--json"] * as_json)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("as_json", [False, True])
def test_vandermonde_answers_cleanly(n, as_json):
    _check("vandermonde", ["vandermonde", str(n)] + ["--json"] * as_json)
