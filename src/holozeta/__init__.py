"""holozeta: exact D-module computations for f_+^lambda phi and local zeta functions.

Given a real polynomial f and a holonomic annihilating ideal for phi, the
package computes the annihilator of f^s (x) u, generalized b-functions and
functional-equation operators, holonomic systems for the Laurent coefficients
of f_+^lambda phi at rational points, and linear difference equations for the
local zeta function Z(lambda) = int f_+^lambda phi dx.
"""

__version__ = "0.1.0"

from .weyl_core import (
    QQ,
    GBTimeout,
    IdealPresentation,
    NonHomogeneousInput,
    RingSignature,
    SignatureMismatch,
    SubmodulePresentation,
    TermOrder,
    WeylOperator,
    colon_kernel,
    d_1,
    d_n,
    d_n_s,
    d_np1,
    eliminate,
    minimal_polynomial,
    normal_form,
    represent,
    time_limit,
)
from .upoly import UPoly
from .annihilator import (
    ProblemInstance,
    WEIGHT_TABLE,
    ann_fs,
    build_malgrange,
    homogenize_w,
    psi_dehomogenize,
    tau_substitute,
)
from .bfunction import BFunction, FunctionalEquation, bfunction, functional_operator, shift_compose
from .laurent import LaurentRequest, LaurentSystem, ann_laurent, build_Jk, laurent_operators
from .integration import (
    DifferenceOperator,
    RestrictionData,
    difference_gcrd,
    fourier_transform,
    integration_ideal,
    mellin_to_difference,
    restriction_data,
    weight_bfunction,
    zeta_difference,
)
from .oracle import LogSection, PhiSpec, apply_log_section, numeric_zeta, residual_check
