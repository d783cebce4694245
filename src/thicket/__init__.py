"""Thick-subcategory classification for finite standard triangulated
categories of Dynkin type, via noncrossing partitions, with a
translation-quiver engine that verifies every count by brute force."""

from .classifier import (
    CategoryType,
    InvarianceCriterion,
    NoClosedForm,
    NotAsashibaType,
    algebra_type_to_category_type,
    classification_report,
    count_thick,
    count_thick_formula,
    enumerate_thick,
    overview_table,
    reduce_criterion,
)
from .derived_engine import (
    InvalidType,
    QuiverAutomorphism,
    ThickDescriptor,
    brute_force_classify,
    build_label_walk,
    cluster_category_check,
    phi_map,
    suspension_vertex_map,
    tau_power,
)
from .ncp_models import (
    BPartition,
    DPartition,
    SetPartitionA,
    ar_bijection_f,
    ar_bijection_g,
    brady_f,
    brady_g,
    construct_fiber,
    enumerate_nc_a,
    enumerate_nc_b,
    is_noncrossing_a,
    kreweras_alpha,
    kreweras_alpha_inverse,
    project_f,
    rho,
    rotate_a,
    sigma,
)
from .root_coxeter import (
    DynkinType,
    GroupElement,
    RootSystem,
    build_root_system,
    enumerate_nc,
    reflection,
    roots_below,
    type_a_as_permutation,
    type_d_as_signed_permutation,
)

__version__ = "0.1.0"
