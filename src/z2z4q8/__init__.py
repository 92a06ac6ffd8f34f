"""Hadamard codes built from mixed Z2/Z4/Q8 alphabets.

The package constructs, classifies, measures, and verifies binary Hadamard
codes that arise as Gray images of subgroups of Z2^k1 x Z4^k2 x Q8^k3.  For
any length 2^m and any allowable pair (kernel dimension, rank) it produces a
concrete code achieving the pair, and for any supplied generator set it
recovers the structural profile and checks it against the classification.
"""

from .algebra import (
    AmbientSpace,
    BinaryWord,
    GroupElement,
    commutator,
    elements_of,
    gray,
    inverse,
    m_set,
    mul,
    order,
    parse_element,
    render_element,
    square,
    swapper,
)
from .code import (
    BinaryCode,
    ClosureSizeError,
    CodeGroup,
    OracleMismatch,
    ParseError,
    RankKernelReport,
    closure,
    export_binary,
    generators_text,
    gf2_basis,
    gf2_rank,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
    log2_order,
    rank_by_span_group,
    rank_gf2,
    rank_kernel_report,
    read_generators,
    write_generators,
)
from .construct import (
    BaseHadamardSpec,
    ConstructionError,
    ConstructionPlan,
    NotAllowableError,
    all_allowable_pairs,
    allowable_pairs,
    base_hadamard,
    build_from_plan,
    build_s_generators,
    construct_for,
    lift_to_A,
    make_plan,
    parse_plan,
    plan_text,
)
from .reference import (
    REFERENCE_FAMILIES,
    REFERENCE_FAMILY_A,
    REFERENCE_FAMILY_B,
    ReferenceCode,
    ReferenceFamily,
    build_reference_code,
)
from .structure import (
    CheckResult,
    CodeProfile,
    MeasureResult,
    StandardGenerators,
    StructureError,
    StructureReport,
    allowable_cases,
    center,
    classify_shape,
    is_normal_subgroup,
    measure,
    render_report,
    shape_parameter_range,
    standardize,
    torsion,
    verify_duplication,
    verify_table3,
)

__version__ = "1.0.0"
