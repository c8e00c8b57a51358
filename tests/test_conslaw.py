import hashlib
import json
import random

import pytest

from symflow import conslaw
from symflow.cli import main
from symflow.expr import Expr, ExprError, JetCoordinate, jet, parse, to_text
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
    with pytest.raises(ExprError):
        conserved_vector(VectorField({"u": jet("u", "x")}))


# sha256 of to_text(T^t), to_text(T^x), recorded before the flux formula
# was written as one loop over the jet orders of L
VECTOR_DIGESTS = {
    "g1": ("4c99e385cf425f4931c4bdebec39b8f8e86163c5a7f2f9f95e6e66a1a94d1f2c",
           "2f877cb9a9350a4197547809c296fa534c33d2f3fd4b23c834e84aebf1019d88"),
    "g2": ("d8d46e2cedf26addb6ad7033e9c9f8d0157b0c7fddb535da83313b88659a9618",
           "66aa8edfe3740e86ce60766eeff48538706032b35cca6ab877ecf2576d4a7651"),
    "g3": ("59360be607459a4cd3efe15db65685824902e82ac0f7374d648f814d14f1541b",
           "018c267d72f6381a2ec828ada8fb4995323745e5dce6222890ebac36f5323e68"),
    "g4": ("45f2efd602b89541718d090fcf0e725deb5de4b5ce8d65297de4b5a09c99f151",
           "d6f776dda7d73341501deae65ccd3fc435851bf8783b49354a1e02b5778fdb1b"),
    "g5": ("7d3282346d7dce6854413989678f9b15e64d4996a43a0d5721deaf706a3c57ec",
           "7792612b3806dd40246d652396b0561c7d175e3ae1a18d6728ddef79be859b4a"),
    "g6": ("45ea6670db70fafc095a3ce8b3aac3959a3584001ac5e4586e965be1ac363d70",
           "3e3bf45bc9b8426d42f4c9859e1ecf3085c0037e15cff2d18d2b72fac7634678"),
    "family": ("3713d9dda16dba859aec93a0b55b9b59ba694d167a0758d17ca8347d9cfaa29c",
               "84d2032102db20acedc91bed9dfc219bdae241c2935c2ff55ff245202c4e770a"),
}


def test_conserved_vectors_print_as_recorded(generators):
    names = ("g1", "g2", "g3", "g4", "g5", "g6")
    fields = dict(zip(names, generators), family=family_vector_field())
    for name, vf in fields.items():
        cv = conserved_vector(vf)
        digests = tuple(hashlib.sha256(to_text(e).encode()).hexdigest() for e in (cv.Tt, cv.Tx))
        assert digests == VECTOR_DIGESTS[name], name


def test_mixed_jet_in_the_lagrangian_is_refused(lagrangian, generators, monkeypatch):
    mixed = lagrangian + parse("m1*Diff(u,x,t)")
    monkeypatch.setattr(conslaw, "formal_lagrangian", lambda: mixed)
    with pytest.raises(ExprError, match="mixed derivative"):
        conserved_vector(generators[4])


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


@pytest.mark.parametrize("count", [0, -1])
def test_a_divergence_check_that_samples_no_point_is_refused(count):
    with pytest.raises(ExprError, match=f"numeric_points must be >= 1, not {count}"):
        verify_divergence(flux_pair(), numeric_points=count)


def test_one_sampling_pass_draws_every_point_of_a_vector(monkeypatch):
    calls = []
    sample = conslaw.consistent_assignment

    def counted(closure, exprs, rngs):
        rngs = list(rngs)
        calls.append(len(rngs))
        return sample(closure, exprs, rngs)

    monkeypatch.setattr(conslaw, "consistent_assignment", counted)
    assert verify_divergence(flux_pair(), numeric_points=5).holds
    assert calls == [5]


def _off_shell(monkeypatch):
    """Shift every sampled value by 1/2, so no solved form holds."""
    on_shell = conslaw.consistent_assignment
    monkeypatch.setattr(
        conslaw, "consistent_assignment",
        lambda *args: [{a: value + 0.5 for a, value in p.items()} for p in on_shell(*args)],
    )


def test_off_shell_samples_fail_the_divergence_check(generators, monkeypatch):
    _off_shell(monkeypatch)
    for cv in (flux_pair(), conserved_vector(generators[1])):
        check = verify_divergence(cv, numeric_points=2)
        assert check.residual.is_zero()
        assert check.numeric_max > conslaw.NUMERIC_TOLERANCE
        assert not check.holds


def test_off_shell_samples_fail_each_divergence_check_in_the_report(tmp_path, capsys, monkeypatch):
    _off_shell(monkeypatch)
    path = tmp_path / "r.json"
    assert main(["all", "--json", str(path)]) == 1
    capsys.readouterr()
    checks = [
        c for c in json.loads(path.read_text())["checks"]
        if c["name"].startswith("divergence-") or c["name"] == "potential-density-flux-pair"
    ]
    assert len(checks) == 9
    for c in checks:
        assert c["status"] == "fail", c["name"]
        assert c["detail"].startswith(
            "exact and numeric disagree: reduces to 0 modulo the prolonged system and its "
            "adjoint; numeric max "
        ), c["name"]


def test_a_divergence_that_does_not_reduce_is_reported_with_its_leading_terms(
    tmp_path, capsys, monkeypatch
):
    pair = flux_pair()
    monkeypatch.setattr(
        conslaw, "flux_pair", lambda: conslaw.ConservedVector(pair.Tt + jet("u"), pair.Tx)
    )
    path = tmp_path / "r.json"
    assert main(["conservation", "--generator", "flux-pair", "--json", str(path)]) == 1
    capsys.readouterr()
    (check,) = json.loads(path.read_text())["checks"]
    residual = combined_closure().reduce(jet("u").total_derivative("t"))
    lead = to_text(Expr(residual.terms[:1]))
    assert check["status"] == "fail"
    assert check["detail"].startswith(
        f"does not reduce to 0 modulo the prolonged system and its adjoint: {lead}"
    )
    assert "; numeric max " in check["detail"]


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
