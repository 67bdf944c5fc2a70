"""Command dispatch, exit codes, golden outputs, JSON determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apolarity import cli
from apolarity.apolar import hf, perp
from apolarity.cli import run
from apolarity.parser import parse_extension, parse_poly


def go(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_monomial_golden(capsys):
    code, out, _ = go(["rank", "x0*x1^4*x2^5"], capsys)
    assert code == 0
    assert out == "rank = 30 (monomial, certified)\n"


def test_lb_golden_bound_eight(capsys):
    code, out, _ = go(["lb", "w*(x^3+y^3+z^3)", "--ideal", "W", "--t", "W"],
                      capsys)
    assert code == 0
    assert "lower bound = 8 (unconditional)" in out
    assert "0: 1\n1: 3\n2: 3\n3: 1\n4: 0\n5: 0" in out
    assert "ideal = (W)" in out


def test_lb_keeps_the_draw_with_the_smallest_colon_sum(capsys):
    # at seed 73 one of the five draws has no X3 term and a colon sum of 15;
    # a general t gives (1, 4, 4, 3), and the form has rank 12
    code, out, err = go(["lb", "x0^2*(x1^3+x2^3+x3^3+x4^3)",
                         "--ideal", "X1;X2;X3;X4", "--seed", "73"], capsys)
    assert (code, err) == (0, "")
    assert "0: 1\n1: 4\n2: 4\n3: 3\n4: 0" in out
    assert out.endswith("lower bound = 12 (generic-t)\n")


def test_strassen_golden_total_seven(capsys):
    code, out, _ = go(["strassen", "x0^2*x1 + y0*y1*y2"], capsys)
    assert code == 0
    assert "verdict: certified" in out
    assert "total rank = 7" in out
    assert "shared e = 1" in out


def test_hf_rows(capsys):
    code, out, _ = go(["hf", "x0^2*x1"], capsys)
    assert code == 0
    assert out == "0: 1\n1: 2\n2: 2\n3: 1\n4: 0\n"


def test_gens_uppercase_rendering(capsys):
    code, out, _ = go(["gens", "x0^3 + x1^3"], capsys)
    assert code == 0
    assert out == "deg 2: X0*X1\ndeg 3: X0^3 - X1^3\n"


def test_perp_lists_slice_bases(capsys):
    code, out, _ = go(["perp", "x0*x1"], capsys)
    assert code == 0
    assert "degree 2: dim 2" in out
    assert "  X0^2" in out and "  X1^2" in out


def test_cat_reports_rank(capsys):
    code, out, _ = go(["cat", "x0^2*x1", "--e", "1"], capsys)
    assert code == 0
    assert out == "catalecticant C_1: 3 x 2, rank 2\n"
    code, _, err = go(["cat", "x0^2*x1"], capsys)
    assert code == 1
    assert "requires --e" in err


def test_ub_solves_and_refutes(capsys):
    code, out, _ = go(["ub", "x0^3 + x1^3", "--points", "1,0; 0,1"], capsys)
    assert code == 0
    assert "count = 2" in out
    code, out, _ = go(["ub", "x0^3 + x1^3", "--points", "1,1; 1,0-1"],
                      capsys)
    assert code == 3
    assert "no decomposition" in out


def test_certify_exit_codes(capsys):
    argv = ["certify", "x0^3 + x1^3", "--ideal", "X0^2; X0*X1; X1^2",
            "--t", "X0*X1"]
    code, out, _ = go(argv + ["--points", "1,0; 0,1"], capsys)
    assert code == 0
    assert "status = certified-equal" in out
    assert "rank = 2" in out
    code, out, _ = go(argv, capsys)
    assert code == 2
    assert "status = bounds-only" in out


def test_wrong_point_length_is_one_error_line(capsys):
    want = ("error: linalg.AmbientMismatch: point length does not match "
            "the variable count\n")
    for argv in (["ub", "x^2*y", "--points", "1,1,1"],
                 ["certify", "x^2*y", "--ideal", "X", "--points", "1,1; 1"]):
        assert go(argv, capsys) == (1, "", want)


def test_rank_interval_exit_two(capsys):
    code, out, _ = go(
        ["rank", "x0*(x1^3 + x2^3 + x3^3 + x4^3 + x5^3)"], capsys)
    assert code == 2
    assert out == "13 <= rank <= 15 (power-times-sum, bounds only)\n"


def test_rank_family_labels(capsys):
    code, out, _ = go(["rank", "x0^4*x1 + x0^3*x1^2"], capsys)
    assert code == 0
    assert "(power-times-form, certified)" in out or \
        "(binary, certified)" in out
    code, out, _ = go(["rank", "x^3 + x*y^2 + y^3"], capsys)
    assert code == 0
    assert "(binary, certified)" in out


def test_sylvester_output(capsys):
    code, out, _ = go(["sylvester", "x0^4*x1"], capsys)
    assert code == 0
    assert out == ("h1 = X1^2 (degree 2, not squarefree)\n"
                   "h2 = X0^5 (degree 5)\n"
                   "rank = 5\n")


def test_strassen_exit_codes(capsys):
    code, out, _ = go(["strassen", "x0*x1^2 + x0*x2^2"], capsys)
    assert code == 3
    assert "verdict: refused" in out
    assert "ranks summing to 6" in out
    code, out, _ = go(["strassen", "x^5 + y^5", "--e", "4"], capsys)
    assert code == 2
    assert "verdict: conditional" in out
    assert "interval = [2, 2]" in out


def test_vandermonde_verb(capsys):
    code, out, _ = go(["vandermonde", "3"], capsys)
    assert code == 0
    assert "V_3: rank = 2 (certified-equal)" in out
    code, _, err = go(["vandermonde", "7"], capsys)
    assert code == 1
    assert "families.NOutOfRange" in err


def test_split_and_reduce(capsys):
    code, out, _ = go(["split", "x0^2*x1 + y0*y1*y2"], capsys)
    assert code == 0
    assert "block 0 (x0, x1): x0^2*x1" in out
    assert "block 1 (y0, y1, y2): y0*y1*y2" in out
    code, out, _ = go(["split", "a^2 + b^2", "--vars", "b,a"], capsys)
    assert code == 0
    assert out.startswith("block 0 (b): b^2")

    code, out, _ = go(["reduce", "(x + y)^2"], capsys)
    assert code == 0
    assert out == "essential variables: 1 of 2\nreduced = x^2\n"


def test_error_rendering(capsys):
    code, _, err = go(["rank", "x0 +* x1"], capsys)
    assert code == 1
    assert err.startswith("error: parser.ParseError:")
    code, _, err = go(["hf", "x0^2 + x1"], capsys)
    assert code == 1
    assert err.startswith("error: poly.NonHomogeneous:")
    code, _, err = go(["lb", "x0*x1", "--ideal", "X0", "--t", "X1"], capsys)
    assert code == 1
    assert err.startswith("error: bounds.TNotInIdeal:")
    code, _, err = go(["nosuchverb", "x"], capsys)
    assert code == 1
    assert "error: parser.ParseError:" in err


@pytest.mark.parametrize("argv,err", [
    (["hf", "x0^3 + x1^3", "--degree-cap", "3"],
     "error: apolar.DegreeMismatch: truncation must reach deg F + 1\n"),
    (["hf", "0"], "error: poly.ZeroForm: the zero polynomial has no degree\n"),
    (["hf", "0", "--degree-cap", "3"],
     "error: poly.ZeroForm: the zero form has no annihilator\n"),
    (["hf", "x0^2 + x1"],
     "error: poly.NonHomogeneous: mixed degrees [1, 2]\n"),
    (["cat", "0", "--e", "1"],
     "error: poly.ZeroForm: catalecticant of the zero form\n"),
    (["cat", "x0^2 + x1", "--e", "1"],
     "error: poly.NonHomogeneous: mixed degrees [1, 2]\n"),
    (["cat", "x0^3 + x1^3", "--e", "4"],
     "error: apolar.DegreeMismatch: catalecticant index 4 outside 0..3\n"),
    (["cat", "x0^3 + x1^3", "--e", "-1"],
     "error: apolar.DegreeMismatch: catalecticant index -1 outside 0..3\n"),
    (["cat", "x0^3 + x1^3"],
     "error: parser.ParseError: cat requires --e (at position 0)\n"),
])
def test_hf_and_cat_error_lines(argv, err, capsys):
    assert go(argv, capsys) == (1, "", err)
    assert go(argv + ["--json"], capsys) == (1, "", err)


_LB_FORM = "x^3*y + y^4 + x*y^3"


# the generator checks (apolar._gens_degree) and the point checks
# (apolar._checked_points), one line each whichever verb reaches them
@pytest.mark.parametrize("argv,err", [
    (["lb", _LB_FORM, "--ideal", ";"],
     "error: apolar.EmptyGeneratorList: need ideal generators\n"),
    (["lb", _LB_FORM, "--ideal", "X; 0"],
     "error: poly.ZeroForm: zero ideal generator\n"),
    (["lb", _LB_FORM, "--ideal", "X; Y^2"],
     "error: apolar.DegreeMismatch: generators span degrees [1, 2]\n"),
    (["lb", _LB_FORM, "--ideal", "1"],
     "error: apolar.DegreeMismatch: generators must have positive degree\n"),
    (["lb", _LB_FORM, "--ideal", "X^5"],
     "error: bounds.EOutOfRange: e = 5 exceeds deg F = 4\n"),
    (["certify", _LB_FORM, "--ideal", "X; 0"],
     "error: poly.ZeroForm: zero ideal generator\n"),
    (["ub", "x^2*y", "--points", "1,1; 2,2"],
     "error: bounds.DuplicatePoint: repeated projective point\n"),
    (["ub", "x^2*y", "--points", "1,2; 1/2,1; 1,1"],
     "error: bounds.DuplicatePoint: repeated projective point\n"),
    (["ub", "x^2*y", "--points", "1,1; 1"],
     "error: linalg.AmbientMismatch: point length does not match the "
     "variable count\n"),
    (["certify", "x^2*y", "--ideal", "X", "--points", "1,1; 2,2"],
     "error: bounds.DuplicatePoint: repeated projective point\n"),
    (["certify", "x^2*y", "--ideal", "X", "--points", "1,1; 1"],
     "error: linalg.AmbientMismatch: point length does not match the "
     "variable count\n"),
])
def test_generator_and_point_error_lines(argv, err, capsys):
    assert go(argv, capsys) == (1, "", err)
    assert go(argv + ["--json"], capsys) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["hf", "x0^3*x1 + 2*x1^2*x2^2 - x2^4"],
    ["hf", "(x0 + x1 + 2*x2)^5 + x0*x1^4", "--degree-cap", "8"],
    ["hf", "x^3 + g*y^3 + x*y*z", "--ext", "g: g^4+g^3+g^2+g+1"],
    ["hf", "x^2*y^2 - g^2*x*y*z^2", "--ext", "g: g^4+g^3+g^2+g+1",
     "--degree-cap", "6"],
])
def test_hf_verb_matches_perp_slices(argv, capsys):
    # the verb reads catalecticant ranks; the kernels of perp must agree
    gen, field = (parse_extension(argv[argv.index("--ext") + 1])
                  if "--ext" in argv else (None, None))
    f = parse_poly(argv[1], field=field, gen_name=gen)
    D = (int(argv[argv.index("--degree-cap") + 1]) if "--degree-cap" in argv
         else f.degree() + 1)
    want = "".join(f"{i}: {v}\n" for i, v in enumerate(hf(perp(f, D)).values))
    assert go(argv, capsys) == (0, want, "")


def test_deep_nesting_is_one_error_line(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = go(["hf", deep], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: parser.ParseError: parentheses nested")
    assert err.count("\n") == 1
    code, out, _ = go(["hf", "(" * 100 + "x*y" + ")" * 100], capsys)
    assert code == 0
    assert out == go(["hf", "x*y"], capsys)[1]


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x0*x1*x2"))
    code, out, _ = go(["hf", "-"], capsys)
    assert code == 0
    assert out == "0: 1\n1: 3\n2: 3\n3: 1\n4: 0\n"


def test_extension_points_from_flags(capsys):
    code, out, _ = go(["ub", "x^2*y", "--ext", "w: w^2 + w + 1",
                       "--points", "1,1; 1,w; 1,w^2", "--vars", "x,y"],
                      capsys)
    assert code == 0
    assert "count = 3" in out


def test_json_outputs_are_byte_identical(capsys):
    argv = ["strassen", "x0^8*x1^2 + x0^8*x2^2 + y0*y1^4*y2^5", "--json"]
    first = go(argv, capsys)
    second = go(argv, capsys)
    assert first == second
    assert first[0] == 0
    data = json.loads(first[1])
    assert data["verdict"] == "certified"
    assert data["total_rank"] == 48
    assert data["module"] == "strassen"

    argv = ["lb", "x^2*(y^2 + z^2 + w^2)", "--ideal", "Y; Z; W", "--seed",
            "7", "--json"]
    a = go(argv, capsys)
    b = go(argv, capsys)
    assert a == b
    assert json.loads(a[1])["lower_bound"] == 9


def test_rank_json_carries_certificate(capsys):
    code, out, _ = go(["rank", "x0^2*x1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "monomial"
    assert data["rank"] == 3
    assert data["status"] == "certified-equal"
    assert data["lower_bound"] == 3


def test_no_verb_prints_help(capsys):
    code, out, _ = go([], capsys)
    assert code == 1
    assert "usage" in out.lower()


def _renamed(value, names):
    """Every string in a report with canonical names x0.. replaced, except
    the fixed citation texts."""
    import re

    if isinstance(value, str):
        return re.sub(r"\bx(\d)\b", lambda m: names[int(m.group(1))], value)
    if isinstance(value, list):
        return [_renamed(v, names) for v in value]
    if isinstance(value, dict):
        return {k: v if k in ("citation", "citations") else _renamed(v, names)
                for k, v in value.items()}
    return value


@pytest.mark.parametrize("form, canonical, names", [
    ("x*(y^2+z^2) + u^3", "x0*(x1^2+x2^2) + x3^3", "xyzu"),
    # the pivot y is canonical x0; x and z are x1 and x2 in order
    ("x^2*y + y*z^2 + u^3", "x1^2*x0 + x0*x2^2 + x3^3", "yxzu"),
])
def test_strassen_xa_sum_b_block_with_its_own_names(capsys, form, canonical,
                                                    names):
    code, out, err = go(["strassen", form], capsys)
    want = go(["strassen", canonical], capsys)
    assert (code, err) == (want[0], want[2]) == (0, "")
    assert out == _renamed(want[1], names)
    assert "total rank = 5" in out
    code, out, _ = go(["strassen", form, "--json"], capsys)
    want = go(["strassen", canonical, "--json"], capsys)
    assert code == want[0] == 0
    got = json.loads(out)
    assert got == _renamed(json.loads(want[1]), names)
    assert got["summands"][0]["certificate"]["t"] == names[0]


@pytest.mark.parametrize("form, canonical, names", [
    ("x*(y^3+z^3)", "x0*(x1^3+x2^3)", "xyz"),
    ("y*(x^3+z^3)", "x0*(x1^3+x2^3)", "yxz"),
    # certified by explicit points
    ("u^2*(v^2+w^2+s^2)", "x0^2*(x1^2+x2^2+x3^2)", "uvws"),
])
def test_rank_xa_sum_b_with_its_own_names(capsys, form, canonical, names):
    from apolarity.parser import parse_poly

    assert go(["rank", form], capsys) == go(["rank", canonical], capsys)
    code, out, _ = go(["rank", form, "--json"], capsys)
    want = json.loads(go(["rank", canonical, "--json"], capsys)[1])
    got = json.loads(out)
    assert code == 0
    assert got.pop("form") == str(parse_poly(form))
    want.pop("form")
    assert got == _renamed(want, names)


def test_rank_xa_sum_b_points_decompose_the_input_form():
    # the pivot y is not the first variable: the witness and the points
    # are moved onto x, y, z, and the points decompose the form as given
    from apolarity.families import analyze
    from apolarity.parser import parse_poly
    from apolarity.poly import Poly, linear_form, power_of_linear

    f = parse_poly("x^2*y^2 + y^2*z^2")
    res = analyze(f).result
    assert res.form == f
    assert [str(g) for g in res.lower.gens] == ["x", "z"]
    upper = res.upper
    total = Poly.zero(f.varset, upper.field)
    for point, c in zip(upper.points, upper.coefficients):
        power = power_of_linear(linear_form(f.varset, point, upper.field), 4)
        total = total + Poly(f.varset, {e: v * c
                                        for e, v in power.terms.items()},
                             upper.field)
    assert total == f.lift(upper.field)


def test_internal_self_check_is_one_error_line(capsys, monkeypatch):
    from apolarity import families

    def broken(*args):
        raise ArithmeticError("colon profile disagreed with the table")

    monkeypatch.setitem(families.ENGINES, "Monomial", broken)
    code, out, err = go(["rank", "x0*x1^2"], capsys)
    assert code == 4
    assert out == ""
    assert err == ("error: internal.ArithmeticError: "
                   "colon profile disagreed with the table\n")


def test_every_error_class_names_its_module():
    import importlib

    from apolarity import errors

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = {cls.__name__: cls.origin
             for cls in subclasses(errors.ApolarityError)}
    # the `error: module.Name:` prefixes the CLI has always printed
    assert found == {
        "ZeroInversion": "fields", "NotInvertible": "fields",
        "InvalidExtension": "fields",
        "VarSetMismatch": "poly", "FieldMismatch": "poly",
        "NonHomogeneous": "poly", "ZeroForm": "poly",
        "AmbientMismatch": "linalg",
        "EmptyGeneratorList": "apolar", "DegreeMismatch": "apolar",
        "TNotInIdeal": "bounds", "EOutOfRange": "bounds",
        "PointsNotApolar": "bounds", "DuplicatePoint": "bounds",
        "NotBinary": "families", "NotMonomial": "families",
        "ParameterOutOfRange": "families", "NotCIShape": "families",
        "HypothesisViolated": "families", "NOutOfRange": "families",
        "MixedDegrees": "strassen",
        "UnknownVariable": "parser", "ParseError": "parser",
    }
    for origin in found.values():
        importlib.import_module(f"apolarity.{origin}")
    with pytest.raises(TypeError):
        class Unplaced(errors.ApolarityError):
            pass


def test_error_line_uses_the_class_origin(capsys):
    code, out, err = go(["lb", "x*y", "--ideal", "X;Y^2"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: apolar.DegreeMismatch: generators span "
                   "degrees [1, 2]\n")
    code, _, err = go(["lb", "x^2", "--ideal", "Y"], capsys)
    assert (code, err) == (1, "error: parser.UnknownVariable: variable 'Y' "
                              "is not in the variable set ['x']\n")


# -- one parser per process

SRC = str(Path(cli.__file__).resolve().parent.parent)


def fresh(argv, columns=80):
    """The same call in a new `python -m apolarity.cli` process."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": str(columns)}
    proc = subprocess.run([sys.executable, "-m", "apolarity.cli", *argv],
                          env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_on_first_use_and_kept():
    probe = ("import apolarity.cli as c; "
             "print(c.build_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("invalid, valid", [
    (["rank"], ["rank", "x0*x1^4*x2^5"]),
    (["rank", "x^2*y", "--seed", "one"], ["rank", "x^2*y", "--json"]),
    (["nosuchverb", "x"], ["hf", "x0^2*x1"]),
    (["hf", "x0^2 + x1"], ["gens", "x0^3 + x1^3"]),
])
def test_shared_parser_answers_like_fresh_processes(capsys, monkeypatch,
                                                    invalid, valid):
    monkeypatch.setenv("COLUMNS", "80")
    got = [go(invalid, capsys), go(valid, capsys)]
    assert got == [fresh(invalid), fresh(valid)]
    assert got[0][:2] == (1, "") and got[0][2].count("\n") == 1
    assert got[1][0] == 0 and got[1][2] == ""


@pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"], []])
def test_help_is_the_same_bytes_on_every_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    first, second = go(argv, capsys), go(argv, capsys)
    assert first == second == fresh(argv)
    assert first[0] == (1 if not argv else 0)
    assert first[1].startswith("usage: apolarity")


def test_help_width_follows_columns_at_print_time(capsys, monkeypatch):
    pages = {}
    for columns in (40, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        pages[columns] = go(["rank", "--help"], capsys)
        assert pages[columns] == fresh(["rank", "--help"], columns)
    assert pages[40][1] != pages[120][1]
    assert pages[40][1].count("\n") > pages[120][1].count("\n")


# -- input errors

@pytest.mark.parametrize("names, message", [
    ("x,x", "variable names must be distinct"),
    (",", "a variable set needs at least one name"),
    ("1x", "invalid variable name '1x'"),
])
@pytest.mark.parametrize("verb", ["rank", "perp", "cat"])
def test_bad_variable_list_is_one_error_line(capsys, verb, names, message):
    argv = [verb, "x^2*y", "--vars", names, "--e", "1"]
    assert go(argv, capsys) == (
        1, "", f"error: parser.ParseError: {message} (at position 0)\n")


def test_rank_e_zero_is_refused(capsys):
    code, out, err = go(["rank", "x^2*y^3", "--e", "0"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: bounds.EOutOfRange:")
    assert err.count("\n") == 1
    assert go(["rank", "x^2*y^3", "--e", "1"], capsys)[0] == 0


@pytest.mark.parametrize("form, e", [
    ("x^3+y^3", "-5"),          # binary
    ("x^2+y^2+z^2+x*y", "0"),   # no family
    ("x^2*(y^3+z^3)", "-1"),    # x^a (y_1^b + ... + y_n^b)
])
def test_rank_e_below_one_is_refused_for_every_family(capsys, form, e):
    assert go(["rank", form, "--e", e], capsys) == (
        1, "", "error: bounds.EOutOfRange: need e >= 1\n")


@pytest.mark.parametrize("form,same_rank_as,line,code", [
    # two essential variables: the binary engine, which agrees with the
    # monomial the form becomes after a change of coordinates
    ("x0*(x1 + x2)", "x0*x1", "rank = 2 (binary, certified)", 0),
    ("x0^2*(x1 + x2)^3", "x0^2*x1^3", "rank = 4 (binary, certified)", 0),
    # more essential variables: the generic colon bound
    ("x0*x3*(x1 + x2)", "x0*x1*x2", "rank >= 3 (generic, bounds only)", 2),
    ("x0^3*(x1^2*x2 + x2^3)", None, "rank >= 6 (generic, bounds only)", 2),
    ("x0*(x1*x2 + x2*x3 + x3*x1)", None, "rank >= 4 (generic, bounds only)",
     2),
])
def test_x0a_g_outside_the_ci_theorem_answers(capsys, form, same_rank_as,
                                               line, code):
    from apolarity.families import classify

    # the form has the X0aG shape, but ci_rank refuses it
    assert classify(parse_poly(form)).tag == "X0aG"
    assert go(["rank", form], capsys) == (code, line + "\n", "")
    got, out, _ = go(["rank", form, "--json"], capsys)
    data = json.loads(out)
    assert got == code and data["family"] == line.split("(")[1].split(",")[0]
    if same_rank_as is not None:
        _, mono_out, _ = go(["rank", same_rank_as], capsys)
        rank = int(mono_out.split()[2])
        if code == 0:
            assert line.split()[2] == str(rank)
        else:
            assert int(line.split()[2]) <= rank


def test_strassen_block_outside_the_ci_theorem_answers(capsys):
    # the first block is analyzed in its two essential variables, where
    # x0*x1 is a monomial with e options (1)
    code, out, err = go(["strassen", "x0*(x1 + x2) + y0*y1"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "block (x0, x1, x2): monomial, rank 2, e options (1)",
        "block (y0, y1): monomial, rank 2, e options (1)",
        "shared e = 1",
        "verdict: certified",
        "total rank = 4"]
