"""Identifiability of linear forms on finite abelian groups and solenoid duals.

The package decides, from the joint characteristic function of two linear
forms in independent group-valued random variables, whether the component
distributions are pinned down up to a shift (three variables) or up to a
Gaussian convolution (four variables on a solenoid character window), and it
reproduces the classical counterexamples that appear when the kernel
conditions on the coefficients fail.
"""

from .groups import DEFAULT_ENUMERATION_BOUND, Element, Group
from .endomorphisms import Endo, annihilator, is_subgroup
from .distributions import (Distribution, LinearFormSpec, joint_char,
                            joint_char_array)
from .funceq import (CharacterVerdict, DegreeReport, FunctionTable,
                     ProductEquation, bernstein_check, bernstein_square_table,
                     character_defect, diff, eliminate, extract_character,
                     is_character, is_polynomial, least_degree,
                     locate_character, ratio_diff, shifted_sum_degrees)
from .identify import (IdentifiabilityReport, PlaneGaussianReport,
                       consistent_shifts, kernel_counterexample,
                       kotlarski_coeffs, plane_gaussian_counterexample,
                       poisson_counterexample, poisson_closed_form_array,
                       recover_shift, verify_form_I, verify_form_II,
                       verify_pair_uniqueness)
from .solenoid import (GaussianFitResult, GaussianIdentReport,
                       RationalLattice, SolenoidCharModel, SolenoidEndo,
                       character_gaussian_values, fit_gaussian_ratio,
                       gaussian_table, make_lattice, vandermonde_nullspace,
                       verify_gaussian_form_I, verify_gaussian_form_II)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_BOUND", "Element", "Group",
    "Endo", "annihilator", "is_subgroup",
    "Distribution", "LinearFormSpec", "joint_char", "joint_char_array",
    "CharacterVerdict", "DegreeReport", "FunctionTable", "ProductEquation",
    "bernstein_check", "bernstein_square_table", "character_defect",
    "consistent_shifts", "diff", "eliminate",
    "extract_character", "is_character", "is_polynomial", "least_degree",
    "locate_character", "ratio_diff", "shifted_sum_degrees",
    "IdentifiabilityReport", "PlaneGaussianReport", "kernel_counterexample",
    "kotlarski_coeffs", "plane_gaussian_counterexample",
    "poisson_counterexample", "poisson_closed_form_array", "recover_shift",
    "verify_form_I", "verify_form_II", "verify_pair_uniqueness",
    "GaussianFitResult", "GaussianIdentReport", "RationalLattice",
    "SolenoidCharModel", "SolenoidEndo", "character_gaussian_values",
    "fit_gaussian_ratio", "gaussian_table", "make_lattice",
    "vandermonde_nullspace", "verify_gaussian_form_I",
    "verify_gaussian_form_II",
    "errors", "__version__",
]
