"""cli: a seeded batch of short in-process `apolarity` calls.

Every verb runs on small forms, with and without --json, including answers
with exit codes 2 and 3 and usage errors with exit code 1. Parsing, argument
handling, family classification, essential-variable reduction, the
additivity pipeline and per-call overhead do the work here, with tiny
matrices. Each distinct call appears twice per pass, so every pass also
checks that a call repeated gives the same bytes.

One call fails every time: an expression nested 3,000 parentheses deep.
The recursive-descent parser overflows the interpreter stack and cli.run,
which catches only ApolarityError and SystemExit, lets the RecursionError
escape. It is counted as failed until the parser is fixed; a fixed parser
must answer it with exit code 1.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks as C
from common import Item, pick_names, random_form

DEEP_NESTING = 3000
EXT_GEN = "g"    # not in common.NAME_POOL, so it never names a variable


def fmt(form: dict, names) -> str:
    """Expression text in the grammar of the program's README."""
    parts = []
    for exps, c in sorted(form.items(), reverse=True):
        c = Fraction(c)
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, exps) if e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (
            f"{mag}*{mono}" if mono else str(mag))
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def dual(name: str) -> str:
    return name[0].upper() + name[1:]


def _mono_text(names, exps) -> str:
    return fmt({tuple(exps): 1}, names)


class Spec:
    """One distinct call: argv, optional stdin, exit code and a summary check.

    summary(code, out, err, as_json) reduces an answer to a dict; expect
    checks that dict against closed forms. The text and --json answers of
    one Spec must give equal summaries.
    """

    def __init__(self, label, argv, code, summary, expect, stdin=None):
        self.label = label
        self.argv = argv
        self.code = code
        self.summary = summary
        self.expect = expect
        self.stdin = stdin


def _match(pattern, line):
    m = re.fullmatch(pattern, line)
    C.require(m is not None, f"unexpected line {line!r}")
    return m


# -- summaries, one per verb: (code, out, err, as_json) -> dict

# labels the README gives each family tag in `rank` answers
FAMILY_LABEL = {"Monomial": "monomial", "Binary": "binary",
                "XaSumB": "power-times-sum",
                "XaSumBPlusPower": "power-times-sum",
                "X0aG": "power-times-form", "Vandermonde": "vandermonde"}


def s_rank(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        family = d["family"]
        label = FAMILY_LABEL[family["tag"]] if isinstance(family, dict) \
            else family
        if "rank" in d:
            return {"rank": d["rank"], "label": label}
        if "interval" in d:
            return {"interval": list(d["interval"]), "label": label}
        return {"lower": d["lower_bound"], "label": label}
    (line,) = out.splitlines()
    m = re.fullmatch(r"rank = (\d+) \(([\w-]+), certified\)", line)
    if m:
        return {"rank": int(m[1]), "label": m[2]}
    m = re.fullmatch(r"(\d+) <= rank <= (\d+) \(([\w-]+), bounds only\)",
                     line)
    if m:
        return {"interval": [int(m[1]), int(m[2])], "label": m[3]}
    m = _match(r"rank >= (\d+) \(([\w-]+), bounds only\)", line)
    return {"lower": int(m[1]), "label": m[2]}


def s_hf(code, out, err, as_json):
    if as_json:
        return {"values": json.loads(out)["values"]}
    return {"values": [int(_match(r"(\d+): (\d+)", ln)[2])
                       for ln in out.splitlines()]}


def s_gens(code, out, err, as_json):
    if as_json:
        return {"gens": [[g["degree"], g["op"]]
                         for g in json.loads(out)["generators"]]}
    return {"gens": [[int(m[1]), m[2]] for m in
                     (_match(r"deg (\d+): (.+)", ln) for ln in out.splitlines())]}


def s_perp(code, out, err, as_json):
    if as_json:
        return {"slices": [[s["degree"], s["dim"], s["basis"]]
                           for s in json.loads(out)["slices"]]}
    slices = []
    for ln in out.splitlines():
        if ln.startswith("  "):
            slices[-1][2].append(ln[2:])
        else:
            m = _match(r"degree (\d+): dim (\d+)", ln)
            slices.append([int(m[1]), int(m[2]), []])
    return {"slices": slices}


def s_cat(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"shape": [d["rows"], d["cols"], d["rank"]]}
    (line,) = out.splitlines()
    m = _match(r"catalecticant C_\d+: (\d+) x (\d+), rank (\d+)", line)
    return {"shape": [int(m[1]), int(m[2]), int(m[3])]}


def s_lb(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"bound": d["lower_bound"], "validity": d["validity"],
                "hf": d["hf_profile"]}
    lines = out.splitlines()
    m = _match(r"lower bound = (\d+) \(([\w-]+)\)", lines[-1])
    start = lines.index("hf:") + 1
    hf = [int(_match(r"\d+: (\d+)", ln)[1]) for ln in lines[start:-1]]
    return {"bound": int(m[1]), "validity": m[2], "hf": hf}


def s_ub(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        if d.get("refuted"):
            return {"refuted": True}
        return {"count": d["count"], "coefficients": d["coefficients"]}
    lines = out.splitlines()
    if code == 3:
        C.require(lines == ["the given points admit no decomposition of "
                            "the form"], "refutation text")
        return {"refuted": True}
    count = int(_match(r"count = (\d+)", lines[0])[1])
    coeffs = [_match(r"point \(.*\): coefficient (.+)", ln)[1]
              for ln in lines[1:]]
    return {"count": count, "coefficients": coeffs}


def s_certify(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"status": d["status"], "bound": d["lower_bound"],
                "rank": d.get("rank")}
    lines = out.splitlines()
    status = _match(r"status = ([\w-]+)", lines[0])[1]
    bound = int(_match(r"lower bound = (\d+) \(e = \d+, [\w-]+\)",
                       lines[1])[1])
    rank = None
    if lines[-1].startswith("rank = "):
        rank = int(lines[-1][len("rank = "):])
    return {"status": status, "bound": bound, "rank": rank}


def s_sylvester(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"rank": d["rank"], "d": [d["d1"], d["d2"]]}
    lines = out.splitlines()
    d1 = int(_match(r"h1 = .* \(degree (\d+), .*\)", lines[0])[1])
    d2 = int(_match(r"h2 = .* \(degree (\d+)\)", lines[1])[1])
    rank = int(_match(r"rank = (\d+)", lines[2])[1])
    return {"rank": rank, "d": [d1, d2]}


def s_strassen(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"verdict": d["verdict"], "total": d["total_rank"],
                "shared_e": d["shared_e"], "notes": d["notes"]}
    lines = out.splitlines()
    verdict = next(_match(r"verdict: (\w+)", ln)[1] for ln in lines
                   if ln.startswith("verdict: "))
    total = next((int(ln[len("total rank = "):]) for ln in lines
                  if ln.startswith("total rank = ")), None)
    shared = next((int(ln[len("shared e = "):]) for ln in lines
                   if ln.startswith("shared e = ")), None)
    notes = [ln[len("note: "):] for ln in lines if ln.startswith("note: ")]
    return {"verdict": verdict, "total": total, "shared_e": shared,
            "notes": notes}


def s_vandermonde(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"rank": d["rank"], "status": d["status"]}
    m = _match(r"V_\d+: rank = (\d+) \(([\w-]+)\)", out.splitlines()[0])
    return {"rank": int(m[1]), "status": m[2]}


def s_split(code, out, err, as_json):
    if as_json:
        return {"blocks": [[b["variables"], b["form"]]
                           for b in json.loads(out)["blocks"]]}
    blocks = []
    for ln in out.splitlines():
        m = _match(r"block \d+ \((.*)\): (.+)", ln)
        blocks.append([m[1].split(", "), m[2]])
    return {"blocks": blocks}


def s_reduce(code, out, err, as_json):
    if as_json:
        d = json.loads(out)
        return {"essential": d["essential"], "reduced": d["reduced"]}
    lines = out.splitlines()
    k = int(_match(r"essential variables: (\d+) of \d+", lines[0])[1])
    return {"essential": k,
            "reduced": _match(r"reduced = (.+)", lines[1])[1]}


def s_error(code, out, err, as_json):
    C.require(out == "", "an error call printed to stdout")
    lines = err.splitlines()
    C.require(len(lines) == 1, f"error output is {len(lines)} lines")
    return {"error": _match(r"(error: \w+\.\w+): .*", lines[0])[1]}


# -- templates: each returns Specs with seeded names and data

def t_rank(rng):
    specs = []
    for exps in [(1, 2), (2, 3), (1, 1, 1), (1, 3), (2, 2), (1, 1, 2),
                 (1, 4), (3, 3)]:
        names = pick_names(rng, len(exps))
        r = C.closed_monomial_rank(exps)
        specs.append(Spec(f"rank monomial {exps}",
                          ["rank", _mono_text(names, exps)], 0, s_rank,
                          _eq({"rank": r, "label": "monomial"})))
    for a, b, n in [(2, 2, 2), (1, 3, 4), (1, 3, 3), (1, 2, 2), (1, 2, 3)]:
        names = pick_names(rng, n + 1)
        body = " + ".join(f"{v}^{b}" for v in names[1:])
        expr = f"{names[0]}^{a}*({body})"
        if a + 1 >= b or n == 2:
            want = {"rank": (a + 1) * n if a + 1 >= b else 2 * b}
        elif n == 3:
            want = {"rank": 3 * b}
        else:
            want = {"interval": [b * n - n + 3, b * n]}
        want["label"] = "power-times-sum"
        specs.append(Spec(f"rank xa_sum_b {a},{b},{n}", ["rank", expr],
                          0 if "rank" in want else 2, s_rank, _eq(want)))
    for c, d in [(2, 3), (3, 4), (2, 5)]:
        u, v = pick_names(rng, 2)
        specs.append(Spec(f"rank binary two powers d={d}",
                          ["rank", f"({u} + {c}*{v})^{d} + ({u} - {v})^{d}"],
                          0, s_rank, _eq({"rank": 2, "label": "binary"})))
    u, v = pick_names(rng, 2)
    specs.append(Spec("rank binary x^4+y^4", ["rank", f"{u}^4 + {v}^4"], 0,
                      s_rank, _eq({"rank": 2, "label": "binary"})))
    a, b, c = pick_names(rng, 3)
    specs.append(Spec("rank V_3", ["rank", f"({a}-{b})*({a}-{c})*({b}-{c})"],
                      0, s_rank, _eq({"rank": 2, "label": "vandermonde"})))
    for b, c in [(2, 2), (3, 3), (3, 2)]:
        x, y, z = pick_names(rng, 3)
        specs.append(Spec(f"rank x*(y^{b}+{c}z^{b})",
                          ["rank", f"{x}*({y}^{b} + {c}*{z}^{b})"], 0,
                          s_rank,
                          _eq({"rank": 2 * b, "label": "power-times-form"})))
    x, y, z = pick_names(rng, 3)
    specs.append(Spec("rank generic cubic",
                      ["rank", f"{x}^2*{y} + {y}^2*{z} + {z}^2*{x}"], 2,
                      s_rank, lambda s: C.require(
                          s.get("label") == "generic" and s.get("lower", 0)
                          >= 1, f"generic answer {s}")))
    return specs


def _eq(want):
    def expect(s):
        C.require(s == want, f"answer {s}, expected {want}")
    return expect


def _small_forms(rng):
    forms = []
    for exps in [(1, 2), (2, 2, 1), (1, 1, 1)]:
        forms.append(({tuple(exps): 1}, pick_names(rng, len(exps))))
    for n, d, terms in [(2, 4, 3), (3, 3, 4), (3, 4, 3)]:
        forms.append((random_form(rng, n, d, terms), pick_names(rng, n)))
    return forms


def t_hf(rng):
    specs = []
    for form, names in _small_forms(rng):
        n, d = len(names), C.degree(form)
        want = C.hf_of_perp(form, n, d + 1)
        specs.append(Spec(f"hf {form}", ["hf", fmt(form, names), "--vars",
                                         ",".join(names)], 0, s_hf,
                          _eq({"values": want})))
    specs.append(Spec("hf from stdin", ["hf", "-"], 0, s_hf,
                      _eq({"values": [1, 3, 3, 1, 0]}),
                      stdin="*".join(pick_names(rng, 3))))
    return specs


def t_gens(rng):
    specs = []
    for exps in [(2, 3), (1, 2, 2), (3, 1)]:
        names = pick_names(rng, len(exps))
        want = sorted([a + 1, f"{dual(v)}^{a + 1}"]
                      for v, a in zip(names, exps))
        specs.append(Spec(f"gens monomial {exps}",
                          ["gens", _mono_text(names, exps)], 0, s_gens,
                          lambda s, w=want: C.require(
                              sorted(s["gens"]) == w, f"gens {s}")))
    x, y = pick_names(rng, 2)
    specs.append(Spec("gens x^3+y^3", ["gens", f"{x}^3 + {y}^3"], 0, s_gens,
                      _eq({"gens": [[2, f"{dual(x)}*{dual(y)}"],
                                    [3, f"{dual(x)}^3 - {dual(y)}^3"]]})))
    return specs


def t_perp_cat(rng):
    specs = []
    for exps in [(1, 1), (2, 1)]:
        names = pick_names(rng, len(exps))
        n, d = len(exps), sum(exps)
        form = {tuple(exps): 1}
        dims = [C.space_dim(n, i) - C.cat_rank(form, n, i)
                for i in range(d + 2)]
        specs.append(Spec(f"perp {exps}", ["perp", _mono_text(names, exps)],
                          0, s_perp, lambda s, w=dims: C.require(
                              [x[1] for x in s["slices"]] == w and
                              all(len(x[2]) == x[1] for x in s["slices"]),
                              f"perp dims {s}")))
    cats = [({(2, 1, 1): 1}, 1), (random_form(rng, 3, 4, 5), 2),
            (random_form(rng, 3, 4, 5), 1)]
    for form, e in cats:
        names = pick_names(rng, 3)
        d = C.degree(form)
        want = [C.space_dim(3, d - e), C.space_dim(3, e),
                C.cat_rank(form, 3, e)]
        specs.append(Spec(f"cat e={e}", ["cat", fmt(form, names), "--e",
                                         str(e), "--vars", ",".join(names)],
                          0, s_cat,
                          _eq({"shape": want})))
    return specs


def t_lb(rng):
    specs = []
    for exps, e in [((2, 3, 4), 1), ((3, 3, 4), 2), ((1, 2, 2), 1)]:
        names = pick_names(rng, len(exps))
        n = len(exps)
        op = f"{dual(names[0])}^{e}" if e > 1 else dual(names[0])
        t = {tuple(e if j == 0 else 0 for j in range(n)): 1}
        form = {tuple(exps): 1}
        hf = C.principal_profile(form, t, n, sum(exps) + 1)
        specs.append(Spec(f"lb monomial {exps} e={e}",
                          ["lb", _mono_text(names, exps), "--ideal", op,
                           "--t", op], 0, s_lb,
                          _eq({"bound": C.closed_monomial_rank(exps),
                               "validity": "unconditional", "hf": hf})))
    names = pick_names(rng, 4)
    form = {(1, 3, 0, 0): 1, (1, 0, 3, 0): 1, (1, 0, 0, 3): 1}
    for k, bound in [(0, 8), (1, 2)]:
        t = {tuple(1 if j == k else 0 for j in range(4)): 1}
        specs.append(Spec(f"lb w(x^3+y^3+z^3) by {k}",
                          ["lb", fmt(form, names), "--ideal", dual(names[k]),
                           "--t", dual(names[k])], 0, s_lb,
                          _eq({"bound": bound, "validity": "unconditional",
                               "hf": C.principal_profile(form, t, 4, 5)})))
    return specs


def t_ub_certify(rng):
    specs = []
    x, y = pick_names(rng, 2)
    base = [f"{x}^3 + {y}^3", "--vars", f"{x},{y}"]
    specs.append(Spec("ub two cubes", ["ub"] + base + ["--points",
                                                       "1,0; 0,1"], 0, s_ub,
                      _eq({"count": 2, "coefficients": ["1", "1"]})))
    specs.append(Spec("ub refuted", ["ub"] + base + ["--points",
                                                     "1,1; 1,-1"], 3, s_ub,
                      _eq({"refuted": True})))
    for d, r in [(3, 2), (4, 3), (5, 4)]:
        pts = rng.sample(range(-7, 8), r)
        coeffs = [rng.choice([c for c in range(-5, 6) if c]) for _ in pts]
        form = C.add_forms(*(C.scale(C.power_of_linear((1, p), d), c)
                             for p, c in zip(pts, coeffs)))
        names = pick_names(rng, 2)
        specs.append(Spec(f"ub rational d={d} r={r}",
                          ["ub", fmt(form, names), "--vars", ",".join(names),
                           "--points", "; ".join(f"1,{p}" for p in pts)],
                          0, s_ub, lambda s, w=coeffs: C.require(
                              s["count"] == len(w) and
                              [Fraction(c) for c in s["coefficients"]] == w,
                              f"ub answer {s}")))
    x, y = pick_names(rng, 2)
    specs.append(Spec("ub over Q(w)",
                      ["ub", f"{x}^2*{y}", "--ext", f"{EXT_GEN}: "
                       f"{EXT_GEN}^2 + {EXT_GEN} + 1", "--points",
                       f"1,1; 1,{EXT_GEN}; 1,{EXT_GEN}^2", "--vars",
                       f"{x},{y}"], 0, s_ub,
                      lambda s: C.require(s.get("count") == 3,
                                          f"ub answer {s}")))
    x, y = pick_names(rng, 2)
    X, Y = dual(x), dual(y)
    cert = ["certify", f"{x}^3 + {y}^3", "--vars", f"{x},{y}", "--ideal",
            f"{X}^2; {X}*{Y}; {Y}^2", "--t", f"{X}*{Y}"]
    specs.append(Spec("certify with points", cert + ["--points", "1,0; 0,1"],
                      0, s_certify, _eq({"status": "certified-equal",
                                         "bound": 2, "rank": 2})))
    specs.append(Spec("certify bounds only", cert, 2, s_certify,
                      _eq({"status": "bounds-only", "bound": 2,
                           "rank": None})))
    return specs


def t_sylvester(rng):
    specs = []
    for a, b in [(4, 1), (2, 3), (3, 3)]:
        names = pick_names(rng, 2)
        specs.append(Spec(f"sylvester {a},{b}",
                          ["sylvester", _mono_text(names, (a, b))], 0,
                          s_sylvester,
                          lambda s, w=max(a, b) + 1, d=a + b: C.require(
                              s["rank"] == w and sum(s["d"]) == d + 2,
                              f"sylvester answer {s}")))
    x, y = pick_names(rng, 2)
    specs.append(Spec("sylvester x^5+y^5", ["sylvester", f"{x}^5 + {y}^5"],
                      0, s_sylvester, _eq({"rank": 2, "d": [2, 5]})))
    return specs


def t_strassen(rng):
    specs = []
    blocks = [[(2, 1), (1, 1, 1)], [(1, 2), (2, 1)], [(5,), (5,)],
              [(4,), (4,), (4,)], [(2, 1), (3,)]]
    for parts in blocks:
        names = pick_names(rng, sum(len(p) for p in parts))
        texts, k = [], 0
        for p in parts:
            texts.append(_mono_text(names[k:k + len(p)], p))
            k += len(p)
        total = sum(C.closed_monomial_rank(p) if len(p) > 1 else 1
                    for p in parts)
        specs.append(Spec(f"strassen {parts}",
                          ["strassen", " + ".join(texts)], 0, s_strassen,
                          lambda s, w=total: C.require(
                              s["verdict"] == "certified" and s["total"] == w
                              and s["shared_e"] == 1, f"strassen {s}")))
    x, y = pick_names(rng, 2)
    specs.append(Spec("strassen conditional",
                      ["strassen", f"{x}^5 + {y}^5", "--e", "4"], 2,
                      s_strassen, lambda s: C.require(
                          s["verdict"] == "conditional" and s["total"] is None,
                          f"strassen {s}")))
    x, y, z = pick_names(rng, 3)
    specs.append(Spec("strassen refused x(y^2+z^2)",
                      ["strassen", f"{x}*{y}^2 + {x}*{z}^2"], 3, s_strassen,
                      lambda s: C.require(
                          s["verdict"] == "refused" and any(
                              "rank is 4" in n and "summing to 6" in n
                              for n in s["notes"]), f"strassen {s}")))
    x, y = pick_names(rng, 2)
    specs.append(Spec("strassen refused monomial",
                      ["strassen", f"{x}^2*{y}"], 3, s_strassen,
                      lambda s: C.require(s["verdict"] == "refused",
                                          f"strassen {s}")))
    return specs


def t_misc(rng):
    specs = [Spec("vandermonde 3", ["vandermonde", "3"], 0, s_vandermonde,
                  _eq({"rank": 2, "status": "certified-equal"})),
             Spec("vandermonde 3 solve", ["vandermonde", "3", "--solve"], 0,
                  s_vandermonde,
                  _eq({"rank": 2, "status": "certified-equal"}))]
    for shapes in [[(2, 1), (1, 1, 1), (3,)], [(1, 1), (2,), (1, 1)]]:
        names = pick_names(rng, sum(len(p) for p in shapes))
        texts, groups, k = [], [], 0
        for p in shapes:
            texts.append(_mono_text(names[k:k + len(p)], p))
            groups.append(sorted(names[k:k + len(p)]))
            k += len(p)
        specs.append(Spec(f"split {shapes}", ["split", " + ".join(texts)], 0,
                          s_split, lambda s, w=groups: C.require(
                              sorted(sorted(b[0]) for b in s["blocks"])
                              == sorted(w), f"split {s}")))
    x, y = pick_names(rng, 2)
    a, b = rng.choice([(1, 2), (2, 3), (3, 1)])
    specs.append(Spec("reduce power of a linear form",
                      ["reduce", f"({a}*{x} + {b}*{y})^3"], 0, s_reduce,
                      lambda s: C.require(s["essential"] == 1,
                                          f"reduce {s}")))
    x, y, z = pick_names(rng, 3)
    specs.append(Spec("reduce with an unused variable",
                      ["reduce", f"{x}^2*{y}", "--vars", f"{x},{y},{z}"], 0,
                      s_reduce, lambda s: C.require(s["essential"] == 2,
                                                    f"reduce {s}")))
    return specs


def t_errors(rng):
    x, y = pick_names(rng, 2)
    cases = [
        (["rank", f"{x} +* {y}"], "error: parser.ParseError"),
        (["hf", f"{x}^2 + {y}"], "error: poly.NonHomogeneous"),
        (["vandermonde", "7"], "error: families.NOutOfRange"),
        (["nosuchverb", x], "error: parser.ParseError"),
        (["lb", f"{x}*{y}", "--ideal", dual(x), "--t", dual(y)],
         "error: bounds.TNotInIdeal"),
        (["cat", f"{x}^2*{y}"], "error: parser.ParseError"),
    ]
    return [Spec(f"error {argv[0]} {want}", argv, 1, s_error,
                 _eq({"error": want})) for argv, want in cases]


TEMPLATES = [t_rank, t_hf, t_gens, t_perp_cat, t_lb, t_ub_certify,
             t_sylvester, t_strassen, t_misc, t_errors]


def _call(ap, argv, stdin):
    def run():
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = ap.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()
    return run


def build(ap, rng: random.Random, seed: int) -> list[Item]:
    summaries: dict = {}
    outputs: dict = {}
    items = []
    for template in TEMPLATES:
        for k, spec in enumerate(template(rng)):
            for as_json in (False, True):
                argv = spec.argv + (["--json"] if as_json else [])
                key = (template.__name__, k)
                check = _check(spec, as_json, key, summaries, outputs)
                for _ in range(2):
                    items.append(Item(f"{spec.label}{' --json' * as_json}",
                                      _call(ap, argv, spec.stdin), check))
    deep = "(" * DEEP_NESTING + "x" + ")" * DEEP_NESTING
    items.append(Item("hf on 3000 nested parentheses",
                      _call(ap, ["hf", deep], None),
                      lambda res: C.require(
                          res[0] == 1 and res[2].startswith("error: "),
                          "deep nesting must be refused with exit code 1")))
    rng.shuffle(items)
    return items


def _check(spec, as_json, key, summaries, outputs):
    argv_key = (key, as_json)

    def check(res):
        code, out, err = res
        if argv_key in outputs:
            C.require(outputs[argv_key] == res,
                      f"{spec.label}: the same call gave different bytes")
            return
        outputs[argv_key] = res
        C.require(code == spec.code,
                  f"{spec.label}: exit code {code}, expected {spec.code}")
        try:
            summary = spec.summary(code, out, err, as_json)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            raise C.CheckFailed(f"{spec.label}: unreadable answer ({exc})")
        spec.expect(summary)
        other = summaries.get((key, not as_json))
        if other is not None:
            C.require(other == summary,
                      f"{spec.label}: --json and text answers differ")
        summaries[(key, as_json)] = summary
    return check
