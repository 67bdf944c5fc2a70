"""Rank additivity over disjoint sets of variables.

A form F = F_1 + ... + F_m whose summands use pairwise disjoint variables
has rk(F) = sum rk(F_i) whenever every summand is e-computable for one
common e and the degree-e slice of each annihilator vanishes in the
summand's essential variables. strassen_rank splits a form into its
variable-disjoint blocks, certifies each block through the family engine
table (families.analyze, which also answers `apolarity rank`), and
searches for a shared e among the blocks' e-options. lemma52_hf_check
verifies the Hilbert function identity behind the additivity argument on
explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apolar import add_principal, catalecticant_rank, colon_by_ideal, hf
from .bounds import RankCertificate, certify, essential_form, lower_bound
from .errors import (DegreeMismatch, EmptyGeneratorList, EOutOfRange,
                     FieldMismatch, MixedDegrees, ZeroForm)
from .families import (CI_CITATION, XASUMB_GEQ_CITATION, _monomial_inputs,
                       _variables, analyze, ci_rank, classify,
                       monomial_certificate, monomial_rank)
from .linalg import subspace_intersect
from .poly import Poly, restrict_to_vars, space_dim, split_disjoint

ADDITIVITY_CITATION = (
    "if F = F_1 + ... + F_m with the F_i in pairwise disjoint sets of "
    "variables, every F_i e-computable for one common e, and the degree-e "
    "slice of each (F_i)^perp zero in the essential variables of F_i, then "
    "rk(F) = rk(F_1) + ... + rk(F_m).")
SUBADDITIVITY_CITATION = (
    "concatenating Waring decompositions of the summands decomposes the "
    "sum, so rk(F_1 + ... + F_m) <= rk(F_1) + ... + rk(F_m) always holds "
    "for summands in disjoint variables.")
FRESH_POWER_CITATION = (
    "rk(F + y^d) = rk(F) + 1 when y is a variable not appearing in F and "
    "d = deg F: a pure power is e-computable for every e <= (d+1)/2 with "
    "vanishing degree-e annihilator slice in its single essential variable.")
REFUSAL_NOTE = (
    "the form does not split into two or more blocks of pairwise disjoint "
    "variables, so the additivity argument does not apply")
OPEN_PAIRING_QUESTION = "is x0*x1^4*x2^5 2-computable?"
NO_SHARED_E_NOTE = (
    "every summand has a certified rank but no single e certifies all of "
    "them, so the total is the conjectural additivity value")
RESTRICTION_LOWER_NOTE = (
    "setting the variables of the other summands to zero restricts any "
    "decomposition, so max_i rk(F_i) = {0} is an unconditional lower bound")

@dataclass(frozen=True)
class SummandReport:
    """One variable-disjoint block with its certificate and e-options."""

    form: Poly
    block: tuple[str, ...]
    family: str
    certificate: RankCertificate
    rank: int | None
    bounds: tuple[int, int | None]
    e_options: tuple[int, ...]
    e_used: int | None
    essential: int
    perp_e_zero: bool | None

    def checks(self) -> dict:
        return {
            "disjoint": True,
            "e-computable-certified": self.rank is not None
            and self.e_used is not None,
            "perp-e-zero": self.perp_e_zero,
            "essential-vars-reduced": True,
        }

    def as_dict(self) -> dict:
        return {
            "form": str(self.form),
            "block": list(self.block),
            "family": self.family,
            "certificate": self.certificate.as_dict(),
            "rank": self.rank,
            "bounds": [self.bounds[0], self.bounds[1]],
            "e_options": list(self.e_options),
            "e_used": self.e_used,
            "essential_variables": self.essential,
            "checks": self.checks(),
        }


@dataclass(frozen=True)
class StrassenReport:
    """Additivity verdict for a sum of variable-disjoint forms."""

    form: Poly
    summands: tuple[SummandReport, ...]
    shared_e: int | None
    verdict: str    # "certified" | "conditional" | "failed" | "refused"
    total_rank: int | None
    interval: tuple[int | None, int | None] | None
    notes: tuple[str, ...]
    citations: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "form": str(self.form),
            "summands": [s.as_dict() for s in self.summands],
            "shared_e": self.shared_e,
            "checks": [s.checks() for s in self.summands],
            "verdict": self.verdict,
            "total_rank": self.total_rank,
            "interval": None if self.interval is None
            else [self.interval[0], self.interval[1]],
            "notes": list(self.notes),
            "citations": list(self.citations),
        }

    def __bool__(self):
        return self.verdict == "certified"


class _Summand:
    """Working record for one block: bounds, e -> witness map, certificate."""

    def __init__(self, form, block, family, bounds, options, essential,
                 fallback, citations, reduced):
        self.form = form
        self.block = block
        self.family = family
        self.bounds = bounds
        self.rank = bounds[0] if bounds[0] == bounds[1] else None
        self.options = options      # {e: (gens, t)} engine inputs per e
        self.essential = essential
        self.fallback = fallback    # RankCertificate when no shared e fits
        self.citations = tuple(citations)
        self.reduced = reduced      # the form in its essential variables

    def report(self, e: int | None) -> SummandReport:
        if e is not None and e in self.options:
            gens, t = self.options[e]
            # the engine's witness is reused where it ran this same
            # (F, gens, t); its generators are distinct variables, so the
            # validity a new call would give is the same too
            witness, field = self.fallback.lower, self.form.field
            if (self.fallback.form != self.form or witness.t != t.lift(field)
                    or witness.gens != tuple(g.lift(field) for g in gens)):
                witness = lower_bound(self.form, list(gens), t)
            if witness.bound != self.rank:
                raise ArithmeticError(
                    "summand witness disagreed with the certified rank")
            cert = RankCertificate(self.form, witness, self.fallback.upper,
                                   self.fallback.status,
                                   self.fallback.cited_rank,
                                   self.fallback.citation)
            # (reduced)_perp vanishes in degree e: Cat_e has full column rank
            perp_zero = (catalecticant_rank(self.reduced, e)
                         == space_dim(len(self.reduced.varset), e))
            return SummandReport(self.form, self.block, self.family, cert,
                                 self.rank, self.bounds, tuple(self.options),
                                 e, self.essential, perp_zero)
        return SummandReport(self.form, self.block, self.family,
                             self.fallback, self.rank, self.bounds,
                             tuple(self.options), None, self.essential, None)


def _analyze_block(g: Poly, block, hint, seed: int) -> _Summand:
    """Certify one block through the CI hint, the pure-power rule or the
    family engine table, a block with redundant variables in its essential
    ones."""
    ess, red = essential_form(g)

    if hint is not None and hint[0] == "ci":
        _, q, a = hint
        cert = ci_rank(g, q, a)
        return _Summand(g, block, "CIperp", (cert.rank, cert.rank),
                        {q.degree(): ((q,), q)}, ess, cert, (CI_CITATION,),
                        red)

    if ess == 1:
        # pure power of a linear form: rank 1 at every admissible e
        cert = monomial_certificate(red)
        options = {e: _monomial_inputs(red, e)
                   for e in range(1, (g.degree() + 1) // 2 + 1)}
        return _Summand(red, block, "Monomial", (1, 1), options, 1, cert,
                        (FRESH_POWER_CITATION,), red)

    # V_n has n - 1 essential variables but is recognized only in its n
    form = g if ess < len(g.varset) and classify(g).tag == "Vandermonde" \
        else red
    found = analyze(form, seed)
    cert, options = found.block()
    return _Summand(form, block, found.tag, found.bounds, options, ess, cert,
                    found.citations, red)


def strassen_rank(f: Poly, e: int | None = None, hints: dict | None = None,
                  seed: int = 0) -> StrassenReport:
    """Additivity verdict for a homogeneous form over its disjoint blocks.

    The form is split into blocks of pairwise disjoint variables; each
    block is classified, certified, and assigned the set of e values for
    which the engine reproduces its rank. A common e with vanishing
    degree-e annihilator slices certifies rk(F) = sum rk(F_i); exact
    summand ranks without a common e give a conditional total; summands
    of unknown rank give interval bounds. A form with a single block is
    refused, since additivity over its terms can fail.

    hints maps a block index (in the order the blocks are reported) to
    ("ci", q, a), routing that block through the complete-intersection
    engine with annihilator (q^a, ...); q is given in the block's own
    variables.
    """
    if f.is_zero():
        raise ZeroForm("the zero form has no rank")
    if not f.is_homogeneous():
        raise MixedDegrees("additivity needs a homogeneous form")
    if f.degree() < 1:
        raise ZeroForm("constants have no rank")
    if e is not None and e < 1:
        raise EOutOfRange("need e >= 1")
    blocks = split_disjoint(f)
    if len(blocks) == 1:
        return _refusal(f, blocks[0], seed)
    hints = hints or {}
    summands = []
    for idx, (comp, positions) in enumerate(blocks):
        g = restrict_to_vars(comp, positions)
        names = tuple(f.varset.names[i] for i in positions)
        summands.append(_analyze_block(g, names, hints.get(idx), seed))

    shared = set.intersection(*[set(s.options) for s in summands])
    if e is not None:
        shared &= {e}
    notes = []
    citations = [ADDITIVITY_CITATION]
    for s in summands:
        for c in s.citations:
            if c and c not in citations:
                citations.append(c)

    if shared:
        e_star = min(shared)
        reports = [s.report(e_star) for s in summands]
        if all(r.perp_e_zero for r in reports):
            total = sum(r.rank for r in reports)
            return StrassenReport(f, tuple(reports), e_star, "certified",
                                  total, (total, total), tuple(notes),
                                  tuple(citations))
        notes.append(f"a degree-{e_star} annihilator slice failed to "
                     "vanish, so the additivity theorem does not apply")
        reports = [s.report(None) for s in summands]
        return _without_shared_e(f, summands, reports, notes, citations)

    reports = [s.report(min(s.options, default=None)) for s in summands]
    if e is not None:
        notes.append(f"no common witness exists at the requested e = {e}")
    return _without_shared_e(f, summands, reports, notes, citations)


def _without_shared_e(f, summands, reports, notes, citations):
    citations = list(citations)
    if SUBADDITIVITY_CITATION not in citations:
        citations.append(SUBADDITIVITY_CITATION)
    ranks = [s.rank for s in summands]
    floor = max(s.bounds[0] for s in summands)
    if all(r is not None for r in ranks):
        total = sum(ranks)
        notes = list(notes) + [NO_SHARED_E_NOTE,
                               RESTRICTION_LOWER_NOTE.format(floor)]
        if _open_pairing_applies(summands):
            notes.append(OPEN_PAIRING_QUESTION)
        return StrassenReport(f, tuple(reports), None, "conditional", None,
                              (total, total), tuple(notes),
                              tuple(citations))
    lo = sum(s.bounds[0] for s in summands)
    his = [s.bounds[1] for s in summands]
    hi = sum(his) if all(h is not None for h in his) else None
    notes = list(notes) + [
        "a summand has no certified rank, so the interval ends are sums "
        "of the individual bounds; the lower end assumes additivity",
        RESTRICTION_LOWER_NOTE.format(floor)]
    return StrassenReport(f, tuple(reports), None, "failed", None,
                          (lo, hi), tuple(notes), tuple(citations))


def _open_pairing_applies(summands) -> bool:
    # the open pairing: a monomial with least exponent 1 admits only
    # e = 1 while another summand certifies only at some e >= 2
    only_one = any(s.family == "Monomial" and set(s.options) == {1}
                   and s.rank is not None and s.rank > 1 for s in summands)
    needs_two = any(s.options and min(s.options) >= 2 for s in summands)
    return only_one and needs_two


def _refusal(f: Poly, block, seed: int) -> StrassenReport:
    comp, positions = block
    g = restrict_to_vars(comp, positions)
    names = tuple(f.varset.names[i] for i in positions)
    match = classify(g)
    notes = [REFUSAL_NOTE]
    ess, _ = essential_form(g)
    if match.tag == "XaSumB" and \
            match.parameters["a"] + 1 == match.parameters["b"]:
        # the standing counterexample to additivity over terms sharing
        # a variable: rk = (a+1)n while the terms have ranks (a+2) each
        a = match.parameters["a"]
        n = match.parameters["n"]
        pivot = match.parameters["pivot"]
        rank = (a + 1) * n
        term_sum = sum(
            monomial_rank(Poly.monomial(g.varset, exps, field=g.field))
            for exps in g.terms)
        gens = [Poly.variable(g.varset, i, field=g.field)
                for i in range(len(g.varset)) if i != pivot]
        witness = lower_bound(g, gens, None, seed)
        if witness.bound != rank:
            raise ArithmeticError("refusal witness missed the known rank")
        cert = RankCertificate(g, witness, None, "cited-upper", rank,
                               XASUMB_GEQ_CITATION)
        notes.append(
            "additivity over the terms of this form fails: its rank is "
            f"{rank} while the {n} terms have ranks summing to {term_sum}")
        report = SummandReport(g, names, match.tag, cert, rank,
                               (rank, rank), (1,), None, ess, None)
        return StrassenReport(f, (report,), None, "refused", None,
                              (rank, rank), tuple(notes),
                              (SUBADDITIVITY_CITATION,
                               XASUMB_GEQ_CITATION))
    cert = certify(g, _variables(g), seed=seed)
    report = SummandReport(g, names, match.tag, cert, None,
                           (cert.lower.bound, None), (), None, ess, None)
    return StrassenReport(f, (report,), None, "refused", None, None,
                          tuple(notes), (SUBADDITIVITY_CITATION,))


@dataclass(frozen=True)
class Lemma52Report:
    """Joint Hilbert function identity for variable-disjoint witnesses."""

    ok: bool
    e: int
    joint_values: tuple[int, ...]
    joint_total: int
    expected_total: int
    summand_totals: tuple[int, ...]
    joint_bound: int

    def __bool__(self):
        return self.ok

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "e": self.e,
            "joint_hf": list(self.joint_values),
            "joint_total": self.joint_total,
            "expected_total": self.expected_total,
            "summand_totals": list(self.summand_totals),
            "joint_bound": self.joint_bound,
        }


def lemma52_hf_check(triples) -> Lemma52Report:
    """Verify the additivity Hilbert function identity on witnesses.

    Each triple (f_i, gens_i, t_i) lives in one common polynomial ring,
    the f_i in pairwise disjoint variables, all gens in one degree e. For
    J_i = (f_i^perp : (gens_i)) + (t_i) the intersection satisfies

        sum_s HF(T / (J_1 cap ... cap J_m), s) = sum_i total_i - m + 1

    because J_i + J_j contains every variable in degree one for i != j.
    The report carries the joint profile and ceil(joint_total / e), the
    lower bound the identity certifies for the sum of the forms.
    """
    triples = list(triples)
    if not triples:
        raise EmptyGeneratorList("need at least one witness triple")
    varset = triples[0][0].varset
    degrees = set()
    e_set = set()
    supports = []
    for f_i, gens_i, t_i in triples:
        if f_i.is_zero():
            raise ZeroForm("witness forms must be nonzero")
        if f_i.varset != varset:
            raise FieldMismatch("witness triples must share one ring")
        degrees.add(f_i.degree())
        for g in list(gens_i) + [t_i]:
            e_set.add(g.degree())
        supports.append({i for exps in f_i.terms
                         for i, x in enumerate(exps) if x > 0})
    if len(degrees) != 1:
        raise MixedDegrees("witness forms must share one degree")
    if len(e_set) != 1:
        raise DegreeMismatch("all generators and contractions must share "
                             "one degree e")
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                raise DegreeMismatch(
                    "witness forms must use disjoint variables")
    d = degrees.pop()
    e = e_set.pop()
    D = d + 1
    ideals = []
    totals = []
    for f_i, gens_i, t_i in triples:
        J = add_principal(colon_by_ideal(f_i, list(gens_i), D), t_i)
        ideals.append(J)
        totals.append(hf(J).total())
    n = len(varset)
    values = []
    for s in range(D + 1):
        slices = [J.slices[s] for J in ideals]
        inter = subspace_intersect(*slices) if len(slices) > 1 else slices[0]
        values.append(space_dim(n, s) - inter.dim)
    m = len(triples)
    joint_total = sum(values)
    expected = sum(totals) - m + 1
    ok = values[D] == 0 and joint_total == expected
    bound = -(-joint_total // e)
    return Lemma52Report(ok, e, tuple(values), joint_total, expected,
                         tuple(totals), bound)
