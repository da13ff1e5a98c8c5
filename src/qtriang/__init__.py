"""Exact classification and verification of quasitriangular structures on
small finite group algebras, with the induced twisted lambda-ring
operations on character rings."""

from .cyclotomic import CycScalar, cyclotomic_polynomial, euler_phi, root_of_unity
from .groups import (
    AbelianGroup,
    BiForm,
    Character,
    FiniteGroup,
    Inclusion,
    abelian_normal_subgroups,
    bundled_group,
    CATALOG_NAMES,
    enumerate_biforms,
    normal_inclusions,
    same_module_structure,
    subgroup_structure,
)
from .hopf import GATensor
from .rmatrix import (
    AlphaMap,
    KoszulTwist,
    QTDatum,
    SupportReport,
    VerificationReport,
    alpha_map,
    build_r,
    koszul_twist,
    markov_element,
    markov_element_flipped,
    minimal_support,
    verify_markov,
    verify_markov_equation,
    verify_qt,
    verify_unitary,
)
from .classify import Catalog, enumerate_qt, enumerate_triangular
from .charring import (
    BraidedAction,
    ClassFunction,
    MatrixRep,
    adams_standard,
    adams_twisted,
    cyclic_operation_char,
    exterior_power_char,
    lambda_from_adams,
    linear_characters,
    linear_character_reps,
    qtrace,
    regular_rep,
    sigma_from_lambda,
    verify_lambda_ring,
)

__version__ = "0.1.0"
