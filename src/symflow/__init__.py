"""symflow: exact verification of the coupled Hirota system's nonlocal
symmetry structure, finite group flow, subalgebra classification, and
nonlocal conservation laws."""

from .expr import (
    ComplexRational,
    DEFAULT_VOCABULARY,
    EvaluationError,
    Expr,
    ExprError,
    ExpFactor,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    ParseError,
    Vocabulary,
    exp_of,
    indep,
    jet,
    param,
    parse,
    to_text,
)
from .jetsys import (
    PdeSystem,
    ReductionError,
    SolvedFormClosure,
    builtin_hirota,
    builtin_prolonged,
    consistent_point,
    cross_derivative_residuals,
    parse_manifest,
    write_manifest,
)
from .linsym import (
    PointAnsatz,
    PointFamily,
    coupled_ansatz,
    coupled_family,
    evolutionary_from_point,
    frechet,
    generate_determining,
    localized_characteristic,
    parse_symmetry_manifest,
    prolonged_ansatz,
    prolonged_family,
    seed_pair,
    verify_symmetry,
)
from .grpflow import (
    FlowMap,
    PoleError,
    RationalExpr,
    closed_form_flow,
    ivp_oracle,
    map_solution,
    sign_variant_flow,
    verify_flow_properties,
)
from .liealg import (
    VectorField,
    commutator,
    family_vector_field,
    standard_generators,
    structure_table,
    verify_optimal_system,
)
from .conslaw import (
    ConservedVector,
    adjoint_system,
    combined_closure,
    conserved_vector,
    euler_lagrange,
    flux_pair,
    formal_lagrangian,
    verify_divergence,
)
from .numcheck import (
    Grid,
    make_vacuum_grid,
    pde_residual,
    read_grid,
    vacuum_forms,
    write_grid,
)

__version__ = "0.1.0"
