"""Exact Waring rank bounds and certificates via apolarity.

The package computes annihilator ideals of homogeneous forms over exact
fields (rationals and their monogenic extensions), derives rank lower
bounds from Hilbert functions of colon ideals, certifies upper bounds by
solving explicit point decompositions, evaluates closed-form ranks for
recognized families, and checks rank additivity across variable-disjoint
summands. Everything is exact; no floating point is used anywhere.
"""

from .errors import ApolarityError
from .fields import (NumberField, QQ, cyclotomic_field, field_invert,
                     root_of_unity, squarefree_check)
from .poly import (Poly, VarSet, apolar_action, embed_in_varset, linear_form,
                   monomial_basis, power_of_linear, restrict_to_vars,
                   space_dim, split_disjoint)
from .linalg import (Matrix, Subspace, kernel, matrix_rank, rref, solve,
                     subspace_intersect, subspace_sum)
from .apolar import (GradedIdeal, HFProfile, add_principal, catalecticant,
                     catalecticant_rank, colon_by_form, colon_by_ideal, hf,
                     hf_points, ideal_from_generators, koszul_ci_hf,
                     minimal_generators, normalize_point, perp, perp_hf,
                     points_ideal, principal_sum_hf)
from .bounds import (ChangeOfBasis, LinearCaseAnalysis, LowerBoundWitness,
                     Prop36Report, RankCertificate, UpperBoundWitness,
                     certify, essential_vars, linear_candidate_analysis,
                     lower_bound, prop36_check, upper_bound_from_points)
from .families import (FamilyAnalysis, FamilyMatch, SylvesterResult,
                       VandermondeResult, XaSumBResult, analyze,
                       build_vandermonde, build_xa_sum_b, ci_rank, classify,
                       detect_x0a_g, elementary_symmetric,
                       monomial_certificate, monomial_points, monomial_rank,
                       sylvester, vandermonde, x0a_g_certificate,
                       xa_sum_b_rank)
from .strassen import (Lemma52Report, StrassenReport, SummandReport,
                       lemma52_hf_check, strassen_rank)
from .parser import parse_extension, parse_poly

__version__ = "0.1.0"

__all__ = [
    "ApolarityError",
    "NumberField", "QQ", "cyclotomic_field", "field_invert",
    "root_of_unity", "squarefree_check",
    "Poly", "VarSet", "apolar_action", "embed_in_varset", "linear_form",
    "monomial_basis", "power_of_linear", "restrict_to_vars", "space_dim",
    "split_disjoint",
    "Matrix", "Subspace", "kernel", "matrix_rank", "rref", "solve",
    "subspace_intersect", "subspace_sum",
    "GradedIdeal", "HFProfile", "add_principal", "catalecticant",
    "catalecticant_rank", "colon_by_form", "colon_by_ideal", "hf",
    "hf_points", "ideal_from_generators", "koszul_ci_hf",
    "minimal_generators", "normalize_point", "perp", "perp_hf",
    "points_ideal", "principal_sum_hf",
    "ChangeOfBasis", "LinearCaseAnalysis", "LowerBoundWitness",
    "Prop36Report", "RankCertificate", "UpperBoundWitness", "certify",
    "essential_vars", "linear_candidate_analysis", "lower_bound",
    "prop36_check", "upper_bound_from_points",
    "FamilyAnalysis", "FamilyMatch", "SylvesterResult", "VandermondeResult",
    "XaSumBResult", "analyze", "build_vandermonde", "build_xa_sum_b",
    "ci_rank", "classify",
    "detect_x0a_g", "elementary_symmetric", "monomial_certificate",
    "monomial_points", "monomial_rank", "sylvester", "vandermonde",
    "x0a_g_certificate", "xa_sum_b_rank",
    "Lemma52Report", "StrassenReport", "SummandReport", "lemma52_hf_check",
    "strassen_rank",
    "parse_extension", "parse_poly",
    "__version__",
]
