"""Command-line front end.

One verb per invocation; every verb accepts --json for the structured
report and prints aligned text otherwise. Exit codes: 0 for success or a
certified result, 2 for bounds-only or conditional results, 3 for refuted
or refused checks, 1 for usage and input errors, 4 for a failed internal
self-check (an ArithmeticError, reported as one line). Output carries no color
codes, so NO_COLOR needs no special handling. `rank` renders the record of
families.analyze without looking at the family tag. --vars must list
distinct valid names; any other list is an input error (exit code 1).

The argument parser is built on the first call and shared by every later
`run` in the process; each call parses into a fresh namespace, and help is
laid out (COLUMNS read) when it is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .apolar import catalecticant_rank, minimal_generators, perp, perp_hf
from .bounds import certify, essential_form, lower_bound, upper_bound_from_points
from .errors import ApolarityError, ParseError
from .families import _variables, analyze, sylvester, vandermonde
from .parser import parse_extension, parse_poly
from .poly import Poly, restrict_to_vars, space_dim, split_disjoint
from .strassen import strassen_rank

FAMILY_LABEL = {
    "Monomial": "monomial", "Binary": "binary", "XaSumB": "power-times-sum",
    "XaSumBPlusPower": "power-times-sum", "X0aG": "power-times-form",
    "Vandermonde": "vandermonde", "None": "generic",
}


def _read_expr(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _load_form(args) -> tuple[Poly, str | None]:
    """The form, and the name of the extension generator if --ext gave one."""
    field = None
    gen_name = None
    if getattr(args, "ext", None):
        gen_name, field = parse_extension(args.ext)
    varnames = None
    if getattr(args, "vars", None):
        varnames = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return parse_poly(_read_expr(args.expr), varnames=varnames, field=field,
                      gen_name=gen_name), gen_name


def _parse_ops(text: str, form: Poly, gen_name) -> list[Poly]:
    out = []
    for piece in text.split(";"):
        piece = piece.strip()
        if piece:
            out.append(parse_poly(piece, varnames=form.varset,
                                  field=form.field, gen_name=gen_name,
                                  alias=True))
    return out


def _parse_points(text: str, form: Poly, gen_name) -> list[tuple]:
    points = []
    dummy = ("c",)
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = []
        for item in chunk.split(","):
            p = parse_poly(item.strip(), varnames=dummy, field=form.field,
                           gen_name=gen_name)
            if any(sum(e) > 0 for e in p.terms):
                raise ParseError("point coordinates must be scalars", 0)
            coords.append(p.coeff((0,)))
        points.append(tuple(coords))
    return points


def _emit(args, body, lines: list[str]) -> None:
    """Print the JSON report body() under --json, else the text lines; the
    report is built only when it is printed."""
    if args.json:
        print(json.dumps(body(), indent=2))
    else:
        for line in lines:
            print(line)


def _hf_rows(values) -> list[str]:
    return [f"{i}: {v}" for i, v in enumerate(values)]


def _cmd_perp(args):
    f, _ = _load_form(args)
    D = args.degree_cap if args.degree_cap is not None else f.degree() + 1
    ideal = perp(f, D)
    lines = []
    slices = []
    for i, sl in enumerate(ideal.slices):
        basis = [p.dual_str() for p in ideal.slice_polys(i)]
        slices.append({"degree": i, "dim": sl.dim, "basis": basis})
        lines.append(f"degree {i}: dim {sl.dim}")
        for b in basis:
            lines.append(f"  {b}")
    _emit(args, lambda: {"module": "apolar", "form": str(f), "degree_cap": D,
                         "slices": slices}, lines)
    return 0


def _cmd_gens(args):
    f, _ = _load_form(args)
    D = args.degree_cap if args.degree_cap is not None else f.degree() + 1
    gens = [(g.degree(), g.dual_str()) for g in minimal_generators(perp(f, D))]
    _emit(args, lambda: {"module": "apolar", "form": str(f), "degree_cap": D,
                         "generators": [{"degree": k, "op": op}
                                        for k, op in gens]},
          [f"deg {k}: {op}" for k, op in gens])
    return 0


def _cmd_hf(args):
    f, _ = _load_form(args)
    D = args.degree_cap if args.degree_cap is not None else f.degree() + 1
    profile = perp_hf(f, D)
    _emit(args, lambda: {"module": "apolar", "form": str(f),
                         "values": list(profile.values),
                         "total": profile.total()}, _hf_rows(profile.values))
    return 0


def _cmd_cat(args):
    f, _ = _load_form(args)
    if args.e is None:
        raise ParseError("cat requires --e", 0)
    r = catalecticant_rank(f, args.e)
    n = len(f.varset)
    nrows, ncols = space_dim(n, f.degree() - args.e), space_dim(n, args.e)
    _emit(args, lambda: {"module": "apolar", "form": str(f), "e": args.e,
                         "rows": nrows, "cols": ncols, "rank": r},
          [f"catalecticant C_{args.e}: {nrows} x {ncols}, rank {r}"])
    return 0


def _cmd_lb(args):
    f, gen_name = _load_form(args)
    if args.ideal:
        gens = _parse_ops(args.ideal, f, gen_name)
    else:
        gens = _variables(f)
    t = None
    if args.t:
        ops = _parse_ops(args.t, f, gen_name)
        t = ops[0] if ops else None
    w = lower_bound(f, gens, t, args.seed)
    lines = [f"e = {w.e}",
             "ideal = (" + ", ".join(g.dual_str() for g in w.gens) + ")",
             f"t = {w.t.dual_str()}", "hf:"]
    lines += _hf_rows(w.profile.values)
    lines.append(f"lower bound = {w.bound} ({w.validity})")
    _emit(args, lambda: {"module": "bounds", "form": str(f), **w.as_dict()},
          lines)
    return 0


def _cmd_ub(args):
    f, gen_name = _load_form(args)
    if not args.points:
        raise ParseError("ub requires --points", 0)
    pts = _parse_points(args.points, f, gen_name)
    witness = upper_bound_from_points(f, pts)
    if witness is None:
        msg = "the given points admit no decomposition of the form"
        _emit(args, lambda: {"module": "bounds", "form": str(f), "count": None,
                             "refuted": True, "message": msg}, [msg])
        return 3
    d = witness.as_dict()
    lines = [f"count = {witness.count}"]
    for p, c in zip(d["points"], d["coefficients"]):
        lines.append(f"point ({', '.join(p)}): coefficient {c}")
    _emit(args, lambda: {"module": "bounds", "form": str(f), **d}, lines)
    return 0


def _cmd_certify(args):
    f, gen_name = _load_form(args)
    if not args.ideal:
        raise ParseError("certify requires --ideal", 0)
    gens = _parse_ops(args.ideal, f, gen_name)
    t = None
    if args.t:
        ops = _parse_ops(args.t, f, gen_name)
        t = ops[0] if ops else None
    points = _parse_points(args.points, f, gen_name) if args.points else None
    cert = certify(f, gens, t, points, args.seed)
    lines = [f"status = {cert.status}",
             f"lower bound = {cert.lower.bound} (e = {cert.lower.e}, "
             f"{cert.lower.validity})"]
    if cert.upper is not None:
        lines.append(f"points = {cert.upper.count}")
    if cert.rank is not None:
        lines.append(f"rank = {cert.rank}")
    _emit(args, lambda: {"module": "bounds", **cert.as_dict()}, lines)
    return 2 if cert.rank is None else 0


def _cmd_rank(args):
    f, _ = _load_form(args)
    found = analyze(f, seed=args.seed, e=1 if args.e is None else args.e)
    label = FAMILY_LABEL[found.tag]
    lo, hi = found.bounds
    if found.rank is not None:
        line, code = f"rank = {found.rank} ({label}, certified)", 0
    elif hi is not None:
        line, code = f"{lo} <= rank <= {hi} ({label}, bounds only)", 2
    else:
        line, code = f"rank >= {lo} ({label}, bounds only)", 2
    _emit(args, lambda: {"module": "families", "form": str(f), "family": label,
                         **found.result.as_dict()}, [line])
    return code


def _cmd_sylvester(args):
    f, _ = _load_form(args)
    syl = sylvester(f)
    sq = "squarefree" if syl.squarefree_h1 else "not squarefree"
    lines = [f"h1 = {syl.h1.dual_str()} (degree {syl.d1}, {sq})",
             f"h2 = {syl.h2.dual_str()} (degree {syl.d2})",
             f"rank = {syl.rank}"]
    _emit(args, lambda: {"module": "families", "form": str(f),
                         **syl.as_dict()}, lines)
    return 0


def _cmd_strassen(args):
    f, _ = _load_form(args)
    report = strassen_rank(f, e=args.e, seed=args.seed)
    lines = []
    for s in report.summands:
        es = ", ".join(str(e) for e in s.e_options)
        rk = "unknown" if s.rank is None else str(s.rank)
        lines.append(f"block ({', '.join(s.block)}): "
                     f"{FAMILY_LABEL.get(s.family, s.family)}, rank {rk}, "
                     f"e options ({es})")
    if report.shared_e is not None:
        lines.append(f"shared e = {report.shared_e}")
    lines.append(f"verdict: {report.verdict}")
    if report.total_rank is not None:
        lines.append(f"total rank = {report.total_rank}")
    elif report.interval is not None:
        lo, hi = report.interval
        hi_txt = "?" if hi is None else str(hi)
        lines.append(f"interval = [{lo}, {hi_txt}]")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(args, lambda: {"module": "strassen", **report.as_dict()}, lines)
    if report.verdict == "certified":
        return 0
    if report.verdict in ("conditional", "failed"):
        return 2
    return 3


def _cmd_vandermonde(args):
    res = vandermonde(args.n, solve_points=True if args.solve else None)
    lines = [f"V_{args.n}: rank = {res.rank} ({res.status})", "hf:"]
    lines += _hf_rows(res.lower.profile.values)
    _emit(args, lambda: {"module": "families", **res.as_dict()}, lines)
    return 0


def _cmd_split(args):
    f, _ = _load_form(args)
    lines = []
    items = []
    for i, (comp, positions) in enumerate(split_disjoint(f)):
        g = restrict_to_vars(comp, positions)
        names = [f.varset.names[j] for j in positions]
        text = str(g)
        lines.append(f"block {i} ({', '.join(names)}): {text}")
        items.append({"variables": names, "form": text})
    _emit(args, lambda: {"module": "poly", "form": str(f), "blocks": items},
          lines)
    return 0


def _cmd_reduce(args):
    f, _ = _load_form(args)
    k, red = essential_form(f)
    n = len(f.varset)
    reduced = str(red)
    _emit(args, lambda: {"module": "bounds", "form": str(f), "essential": k,
                         "removed": n - k, "reduced": reduced},
          [f"essential variables: {k} of {n}", f"reduced = {reduced}"])
    return 0


DISPATCH = {
    "perp": _cmd_perp, "gens": _cmd_gens, "hf": _cmd_hf, "cat": _cmd_cat,
    "lb": _cmd_lb, "ub": _cmd_ub, "certify": _cmd_certify,
    "rank": _cmd_rank, "sylvester": _cmd_sylvester,
    "strassen": _cmd_strassen, "vandermonde": _cmd_vandermonde,
    "split": _cmd_split, "reduce": _cmd_reduce,
}


class _Argv(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--vars", help="comma-separated variable order")
    shared.add_argument("--ext", help="extension field, 'name: polynomial'")
    shared.add_argument("--degree-cap", type=int, dest="degree_cap",
                        help="truncation degree override")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for generic draws (default 0)")
    shared.add_argument("--e", type=int, help="certificate degree e")
    shared.add_argument("--json", action="store_true",
                        help="structured JSON output")

    top = _Argv(prog="apolarity",
                description="Exact Waring rank bounds and certificates "
                            "for homogeneous polynomials.")
    sub = top.add_subparsers(dest="verb")
    expr_help = "polynomial expression, or - to read stdin"
    for verb in ("perp", "gens", "hf", "cat", "rank", "sylvester",
                 "strassen", "split", "reduce"):
        p = sub.add_parser(verb, parents=[shared])
        p.add_argument("expr", help=expr_help)
    for verb in ("lb", "certify"):
        p = sub.add_parser(verb, parents=[shared])
        p.add_argument("expr", help=expr_help)
        p.add_argument("--ideal", help="semicolon-separated generators")
        p.add_argument("--t", help="contraction t in the ideal")
        if verb == "certify":
            p.add_argument("--points", help="semicolon-separated points, "
                                            "coordinates comma-separated")
    p = sub.add_parser("ub", parents=[shared])
    p.add_argument("expr", help=expr_help)
    p.add_argument("--points", help="semicolon-separated points")
    p = sub.add_parser("vandermonde", parents=[shared])
    p.add_argument("n", type=int, help="number of variables, 3 to 6")
    p.add_argument("--solve", action="store_true",
                   help="decompose over the permutation points for every n "
                        "(the default only for n <= 4)")
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            parser.print_help()
            return 1
        return DISPATCH[args.verb](args)
    except ApolarityError as err:
        print(f"error: {err.origin}.{type(err).__name__}: {err}",
              file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"error: internal.{type(err).__name__}: {err}", file=sys.stderr)
        return 4
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
