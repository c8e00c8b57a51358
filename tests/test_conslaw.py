import random

import pytest

from symflow.expr import Expr, JetCoordinate, jet, parse, to_text
from symflow.conslaw import (
    FIELD_DEPENDENTS,
    MULTIPLIERS,
    adjoint_system,
    combined_closure,
    conserved_vector,
    euler_lagrange,
    flux_pair,
    formal_lagrangian,
    transcription_residual,
    verify_divergence,
)
from symflow.liealg import VectorField, family_vector_field, standard_generators
from conftest import random_expr


@pytest.fixture(scope="module")
def lagrangian():
    return formal_lagrangian()


@pytest.fixture(scope="module")
def generators():
    return standard_generators()


# ---------------------------------------------------------------------------
# Euler-Lagrange operator
# ---------------------------------------------------------------------------


def test_adjoint_of_heat_operator():
    L = parse("m1*(Diff(u,t) - Diff(u,x,x))")
    assert euler_lagrange(L, "u") == parse("-Diff(m1,t) - Diff(m1,x,x)")


def test_variational_derivative_of_gradient_energy():
    assert euler_lagrange(parse("Diff(u,x)^2/2"), "u") == parse("-Diff(u,x,x)")


def test_potential_appears_only_through_first_derivatives(lagrangian):
    assert euler_lagrange(lagrangian, "f") == parse("-Diff(m7,x) - Diff(m8,t)")


def test_euler_operator_annihilates_divergences():
    rng = random.Random(67)
    pool = (
        JetCoordinate("u"),
        JetCoordinate("v", ("x",)),
        JetCoordinate("phi"),
        JetCoordinate("m1", ("x",)),
        JetCoordinate("u", ("x",)),
        JetCoordinate("psi", ("t",)),
    )
    checked = 0
    for _ in range(100):
        a = random_expr(rng, terms=3, atoms=pool)
        b = random_expr(rng, terms=3, atoms=pool)
        divergence = a.total_derivative("x") + b.total_derivative("t")
        for name in ("u", "v", "phi", "psi", "m1"):
            assert euler_lagrange(divergence, name).is_zero()
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# formal Lagrangian
# ---------------------------------------------------------------------------


def test_lagrangian_vanishes_on_shell(lagrangian, prolonged):
    assert prolonged.reduce(lagrangian).is_zero()


def test_lagrangian_time_derivative_coefficient(lagrangian):
    assert lagrangian.diff(JetCoordinate("u", ("t",))) == parse("I*m1")


def test_lagrangian_is_multiplier_degree_one(lagrangian):
    for mono, _coeff in lagrangian.terms:
        degree = sum(n for a, n in mono if isinstance(a, JetCoordinate) and a.name in MULTIPLIERS)
        assert degree == 1


def test_lagrangian_has_no_mixed_field_derivatives(lagrangian):
    for a in lagrangian.jet_atoms():
        if a.name in FIELD_DEPENDENTS:
            assert not ("x" in a.index and "t" in a.index)


# ---------------------------------------------------------------------------
# adjoint system
# ---------------------------------------------------------------------------


def test_adjoint_has_five_equations_eight_multipliers():
    adjoint = adjoint_system()
    assert len(adjoint.equations) == 5
    assert len(MULTIPLIERS) == 8  # underdetermined: free multipliers remain


def test_potential_adjoint_rule():
    adjoint = adjoint_system()
    assert adjoint.solved_forms[JetCoordinate("m7", ("x",))] == parse("-Diff(m8,t)")


def test_leading_coefficient_of_first_adjoint_equation():
    adjoint = adjoint_system()
    coefficient = adjoint.equations[0].diff(JetCoordinate("m1", ("t",)))
    assert coefficient == parse("-I")


def test_adjoint_rules_reduce_their_equations():
    adjoint = adjoint_system()
    closure = combined_closure()
    for equation in adjoint.equations:
        assert closure.reduce(equation).is_zero()


# ---------------------------------------------------------------------------
# conserved vectors
# ---------------------------------------------------------------------------


def test_potential_translation_vector_is_the_multiplier_pair(generators):
    cv = conserved_vector(generators[2])  # d/df
    assert cv.Tt == parse("m8")
    assert cv.Tx == parse("m7")


def test_time_translation_vector_contains_the_lagrangian(lagrangian, generators):
    cv = conserved_vector(generators[4])  # d/dt
    # T^t = L + sum W dL/dw_t with W = -w_t; the L part must be present
    residual = cv.Tt - lagrangian
    for name in FIELD_DEPENDENTS:
        w_t = Expr.atom(JetCoordinate(name, ("t",)))
        residual = residual + w_t * lagrangian.diff(JetCoordinate(name, ("t",)))
    assert residual.is_zero()


def test_generator_coefficients_must_be_point_functions():
    from symflow.expr import ExprError

    with pytest.raises(ExprError):
        conserved_vector(VectorField({"u": jet("u", "x")}))


def test_flux_pair_divergence():
    check = verify_divergence(flux_pair(), numeric_points=4)
    assert check.holds
    assert check.residual.is_zero()
    assert check.numeric_max < 1e-9


def test_each_generator_divergence(generators):
    for g in generators:
        check = verify_divergence(conserved_vector(g), numeric_points=3)
        assert check.holds
        assert check.numeric_max < 1e-9


def test_family_divergence_identically_in_constants():
    cv = conserved_vector(family_vector_field())
    check = verify_divergence(cv, numeric_points=3)
    assert check.holds
    assert check.numeric_max < 1e-9


def test_multiplier_pair_is_nonzero_on_shell(generators):
    closure = combined_closure()
    cv = conserved_vector(generators[2])
    assert not closure.reduce(cv.Tt).is_zero()
    assert not closure.reduce(cv.Tx).is_zero()
    assert verify_divergence(cv, numeric_points=2).nontrivial == "components nonzero on-shell"


def test_manufactured_trivial_pair_passes_divergence():
    # (D_x H, -D_t H) is conserved for any H: the divergence check alone
    # does not certify nontriviality
    rng = random.Random(9)
    pool = (
        JetCoordinate("u"),
        JetCoordinate("phi"),
        JetCoordinate("m5"),
        JetCoordinate("u", ("x",)),
    )
    for _ in range(5):
        h = random_expr(rng, terms=3, atoms=pool)
        from symflow.conslaw import ConservedVector

        cv = ConservedVector(
            Tt=h.total_derivative("x"), Tx=-h.total_derivative("t")
        )
        assert verify_divergence(cv, numeric_points=2).holds


def test_components_vanishing_on_shell_are_labelled_trivial():
    from symflow.conslaw import ConservedVector

    cv = ConservedVector(Tt=parse("Diff(f,x) - phi*psi"), Tx=Expr.ZERO)
    check = verify_divergence(cv, numeric_points=2)
    assert check.holds
    assert check.nontrivial == "trivial (both components vanish on-shell)"


def test_transcription_diagnostic_roundtrip():
    cv = conserved_vector(family_vector_field())
    text = f"T1 = {to_text(cv.Tt)}\nT2 = {to_text(cv.Tx)}\n"
    residuals = transcription_residual(text)
    assert residuals["T1"].is_zero() and residuals["T2"].is_zero()


def test_transcription_diagnostic_flags_mismatch():
    cv = conserved_vector(family_vector_field())
    text = f"T1 = {to_text(cv.Tt)} + u\nT2 = {to_text(cv.Tx)}\n"
    residuals = transcription_residual(text)
    assert not residuals["T1"].is_zero()
    assert residuals["T2"].is_zero()
