import cmath
import random

import pytest
from hypothesis import given, settings, strategies as st

from symflow import conslaw, linsym
from symflow.expr import (
    Expr, ExprError, ExpFactor, JetCoordinate, Parameter, exp_of, jet, parse, to_text,
)
from symflow.jetsys import (
    ManifestError,
    PdeSystem,
    ReductionError,
    SolvedFormClosure,
    builtin_hirota,
    builtin_prolonged,
    consistent_assignment,
    consistent_point,
    cross_derivative_residuals,
    lax_pair,
    parse_manifest,
    solve_for,
    write_manifest,
    zero_curvature_equations,
)
from conftest import fresh_interpreter, random_expr


# ---------------------------------------------------------------------------
# built-in corpus
# ---------------------------------------------------------------------------


def test_evolution_equations_vanish_on_solved_forms(hirota):
    for equation in hirota.equations:
        assert hirota.reduce(equation).is_zero()


def test_zero_background_satisfies_both_equations(hirota):
    zeros = {a: Expr.ZERO for eq in hirota.equations for a in eq.jet_atoms()}
    for equation in hirota.equations:
        assert equation.substitute(zeros).is_zero()


def test_v_rule_contains_no_u_time_derivative(hirota):
    rule = hirota.solved_forms[JetCoordinate("v", ("t",))]
    assert JetCoordinate("u", ("t",)) not in set(rule.atoms())


@pytest.mark.parametrize("equation", ["u*Diff(u,t)", "Diff(u,x) - u"])
def test_solve_for_needs_a_nonzero_constant_coefficient(equation):
    with pytest.raises(ExprError, match="cannot isolate"):
        solve_for(parse(equation), JetCoordinate("u", ("t",)))


def test_linear_problem_entry_b_vanishes_on_zero_field(prolonged):
    (_, b), _ = lax_pair()[1]
    zeros = {a: Expr.ZERO for a in b.jet_atoms() if a.name == "u"}
    assert b.substitute(zeros).is_zero()


def test_linear_problem_entry_a_at_zero_spectral_parameter():
    (a, _), _ = lax_pair()[1]
    at_zero = a.substitute({Parameter("lambda"): Expr.ZERO})
    assert at_zero == parse("-alpha*I*u*v + beta*(v*Diff(u,x) - u*Diff(v,x))")


#: the coupled Hirota equations as the paper states them
PAPER_EQUATIONS = (
    "I*Diff(u,t) + alpha*(Diff(u,x,x) - 2*u^2*v) + I*beta*(Diff(u,x,x,x) - 6*u*v*Diff(u,x))",
    "I*Diff(v,t) - alpha*(Diff(v,x,x) - 2*v^2*u) + I*beta*(Diff(v,x,x,x) - 6*u*v*Diff(v,x))",
)


def test_zero_curvature_of_the_lax_pair_is_the_system(hirota):
    # the system is derived from the Lax pair; it must be the paper's
    assert hirota.equations == tuple(parse(text) for text in PAPER_EQUATIONS)


def test_zero_curvature_breaks_when_a_term_of_b_is_doubled():
    u_matrix, ((a, b), (c, minus_a)) = lax_pair()
    for term in b.items():
        v_matrix = ((a, b + Expr([term])), (c, minus_a))
        with pytest.raises(ExprError, match="diagonal entry"):
            zero_curvature_equations(u_matrix, v_matrix)


def test_zero_curvature_refuses_a_pair_that_keeps_lambda_cubed():
    # -4*beta*I*lambda^3 in A changed to -3*...: the diagonal stays 0, and
    # lambda^3 is left in both off-diagonal entries
    u_matrix, ((a, b), (c, _)) = lax_pair()
    a = a + parse("beta*I*lambda^3")
    with pytest.raises(ExprError, match=r"keeps lambda\^3 off the diagonal"):
        zero_curvature_equations(u_matrix, ((a, b), (c, -a)))


def test_zero_curvature_refuses_a_nonzero_diagonal():
    # A + u*v leaves the off-diagonal entries free of lambda, and the
    # diagonal -(u*v)_x
    u_matrix, ((a, b), (c, _)) = lax_pair()
    a = a + parse("u*v")
    with pytest.raises(ExprError) as refusal:
        zero_curvature_equations(u_matrix, ((a, b), (c, -a)))
    assert str(refusal.value).endswith("diagonal entry (1,1) = -u*Diff(v,x) - Diff(u,x)*v")


def test_potential_rule_self_consistency(prolonged):
    key = JetCoordinate("f", ("x",))
    residual = Expr.atom(key) - prolonged.solved_forms[key]
    assert prolonged.reduce(residual).is_zero()


# ---------------------------------------------------------------------------
# on-shell reduction
# ---------------------------------------------------------------------------


def test_flatness_of_the_linear_problem(prolonged):
    residuals = cross_derivative_residuals(prolonged)
    assert set(residuals) == {"phi", "psi", "f"}
    for residual in residuals.values():
        assert residual.is_zero()


def test_reduce_leaves_unsolved_coordinates_alone(prolonged):
    assert prolonged.reduce(jet("u", "x")) == jet("u", "x")


def test_reduce_eliminates_time_derivatives(prolonged):
    reduced = prolonged.reduce(jet("u", "t", "t"))
    for a in reduced.jet_atoms():
        assert "t" not in a.index


def test_reduction_is_a_projection(prolonged):
    rng = random.Random(5)
    pool = (
        JetCoordinate("u", ("t",)),
        JetCoordinate("phi", ("x",)),
        JetCoordinate("psi", ("t",)),
        JetCoordinate("f", ("x",)),
        JetCoordinate("u", ("x",)),
        JetCoordinate("u"),
        JetCoordinate("v"),
        Parameter("alpha"),
        Parameter("lambda"),
    )
    for _ in range(30):
        e = random_expr(rng, atoms=pool, max_power=1)
        once = prolonged.reduce(e)
        assert prolonged.reduce(once) == once


def test_numeric_symbolic_agreement(prolonged):
    rng = random.Random(17)
    pool = (
        JetCoordinate("u", ("t",)),
        JetCoordinate("phi", ("t",)),
        JetCoordinate("f", ("x",)),
        JetCoordinate("v", ("x",)),
        JetCoordinate("psi"),
        JetCoordinate("u"),
    )
    for k in range(20):
        e = random_expr(rng, atoms=pool)
        reduced = prolonged.reduce(e)
        point = consistent_point(prolonged, seed=1000 + k, max_order=2)
        lhs = e.eval_numeric(point)
        rhs = reduced.eval_numeric(point)
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# consistent points
# ---------------------------------------------------------------------------


def test_consistent_point_satisfies_all_equations(prolonged):
    point = consistent_point(prolonged, seed=3, max_order=2)
    for equation in prolonged.equations:
        assert abs(equation.eval_numeric(point)) < 1e-12


def test_consistent_point_satisfies_potential_rule(prolonged):
    point = consistent_point(prolonged, seed=4, max_order=1)
    residual = jet("f", "x") - jet("phi") * jet("psi")
    assert abs(residual.eval_numeric(point)) < 1e-12


def test_consistent_points_differ_between_seeds(prolonged):
    u = JetCoordinate("u")
    p1 = consistent_point(prolonged, seed=1, max_order=1)
    p2 = consistent_point(prolonged, seed=2, max_order=1)
    assert p1[u] != p2[u]


def test_consistent_assignment_evaluates_exp_factors_and_never_draws_them(prolonged):
    expr = parse("Exp(2*u) + Diff(u,t)*Exp(v)")
    (point,) = consistent_assignment(prolonged.closure, [expr], [random.Random(1)])
    assert not any(type(a) is ExpFactor for a in point)
    u, v, ut = JetCoordinate("u"), JetCoordinate("v"), JetCoordinate("u", ("t",))
    expected = cmath.exp(2 * point[u]) + point[ut] * cmath.exp(point[v])
    assert abs(expr.eval_numeric(point) - expected) < 1e-12
    assert abs(point[ut] - prolonged.solved_forms[ut].eval_numeric(point)) < 1e-12


#: jets the combined closure solves (a multiplier's among them), jets it
#: leaves free, and atoms that are no jet
SAMPLE_POOL = (
    Parameter("alpha"),
    JetCoordinate("u"),
    JetCoordinate("u", ("t",)),
    JetCoordinate("phi", ("x", "t")),
    JetCoordinate("f", ("x", "x")),
    JetCoordinate("v", ("x",)),
    JetCoordinate("psi"),
    JetCoordinate("m1", ("t",)),
    JetCoordinate("m3", ("x",)),
    JetCoordinate("m5"),
)


def _bits(point):
    """A point's atoms in assignment order, each value by its repr."""
    return [(a, repr(value)) for a, value in point.items()]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 2**64), min_size=1, max_size=5))
def test_one_sampling_pass_equals_a_call_per_generator(expr_seed, seeds):
    closure = conslaw.combined_closure()
    rng = random.Random(expr_seed)
    exprs = [random_expr(rng, atoms=SAMPLE_POOL, allow_exp=True) for _ in range(2)]
    together = consistent_assignment(closure, exprs, [random.Random(s) for s in seeds])
    apart = [consistent_assignment(closure, exprs, [random.Random(s)]) for s in seeds]
    assert [_bits(p) for p in together] == [_bits(p) for (p,) in apart]


_POINT_SCRIPT = """
from symflow.jetsys import builtin_prolonged, consistent_point
from symflow.linsym import generate_determining, prolonged_ansatz
point = consistent_point(builtin_prolonged(), 5)
for atom in sorted(point, key=lambda a: a.sort_key()):
    print(atom, repr(point[atom]))
for ansatz in (prolonged_ansatz(), coupled_ansatz()):
    print(constraint_digest(generate_determining(builtin_prolonged(), ansatz).constraints))
"""


def test_consistent_point_ignores_string_hash_seed():
    """Atoms hash by address and strings by PYTHONHASHSEED, so sets of atoms
    iterate in an order that changes between runs; nothing printed may.
    Expressions keep their terms in construction order, and both pinned
    determining digests print the same under either seed."""
    outputs = [fresh_interpreter(_POINT_SCRIPT, hash_seed) for hash_seed in ("0", "1")]
    assert outputs[0] and outputs[0] == outputs[1]
    assert outputs[0].endswith("\n327004d4aebe966f\n6cafbd0a0dcf7c24\n")


# ---------------------------------------------------------------------------
# closure behaviour
# ---------------------------------------------------------------------------


def test_closure_prefers_the_x_rule(prolonged):
    closure = prolonged.closure
    base = closure.base_key(JetCoordinate("phi", ("t", "x")))
    assert base == JetCoordinate("phi", ("x",))


def test_closure_rejects_a_cyclic_solved_form():
    # u_t -> u_t + 1 never reaches a fixed point
    bad = {JetCoordinate("u", ("t",)): Expr.atom(JetCoordinate("u", ("t",))) + 1}
    closure = SolvedFormClosure(bad)

    with pytest.raises(ReductionError, match="cyclic"):
        closure.reduce(jet("u", "t"))


def _reducible_atoms(closure, e):
    return [a for a in e.atoms() if isinstance(a, JetCoordinate) and closure.base_key(a) is not None]


def _exp_pool_expr(rng, pool):
    """A random expression times Exp of a jet-dependent random argument."""
    argument = random_expr(rng, terms=2, atoms=pool, max_power=1) + Expr.atom(rng.choice(pool[:5]))
    return random_expr(rng, terms=3, atoms=pool, max_power=1) * exp_of(argument)


@pytest.mark.parametrize("closure_of", [
    lambda: builtin_prolonged().closure,
    conslaw.combined_closure,
], ids=["prolonged", "combined"])
def test_one_reduction_leaves_no_reducible_jet(closure_of):
    closure = closure_of()
    prolonged = builtin_prolonged()
    family = linsym.prolonged_family()
    residuals = linsym.frechet(prolonged, family.characteristic(), family.equations)
    exprs = [*prolonged.equations, *prolonged.solved_forms.values(), *residuals]
    rng = random.Random(31)
    pool = (
        JetCoordinate("u", ("t",)),
        JetCoordinate("phi", ("t", "x")),
        JetCoordinate("f", ("x", "x")),
        JetCoordinate("m3", ("x",)),
        JetCoordinate("m1", ("t",)),
        JetCoordinate("psi"),
        JetCoordinate("v", ("x",)),
        Parameter("lambda"),
    )
    with_exp = [_exp_pool_expr(rng, pool) for _ in range(15)]
    inside_exp = [
        a for e in with_exp for b in e.atoms() if isinstance(b, ExpFactor)
        for a in _reducible_atoms(closure, b.argument)
    ]
    assert inside_exp  # the Exp arguments do hold jets to reduce
    for e in [*exprs, *with_exp]:
        reduced = closure.reduce(e)
        assert _reducible_atoms(closure, reduced) == [], to_text(e)[:80]


# ---------------------------------------------------------------------------
# manifest round trip
# ---------------------------------------------------------------------------


def test_manifest_round_trip(prolonged, hirota):
    for system in (hirota, prolonged):
        text = write_manifest(system)
        back = parse_manifest(text, name=system.name)
        assert back.equations == system.equations
        assert back.solved_forms == system.solved_forms
        assert back.independents == system.independents
        assert back.dependents == tuple(system.dependents)
        # idempotent re-emission
        assert write_manifest(back) == text


def test_manifest_repeated_solved_key_is_refused(hirota):
    # a second Diff(u,t) line must not silently replace the first
    text = write_manifest(hirota).replace(
        "[solved]\n", "[solved]\nDiff(u,t) = 5*Diff(u,x)\nDiff(u,t) = alpha*Diff(u,x)\n"
    )
    with pytest.raises(ManifestError, match=r"given twice, again in 'Diff\(u,t\) = alpha\*Diff\(u,x\)'"):
        parse_manifest(text)


@pytest.mark.parametrize("section", ["[independents]", "[parameters]", "[solved]"])
def test_manifest_unknown_section_header_is_refused(hirota, section):
    # under [parameters] it would otherwise become a parameter named '[bogus]'
    text = write_manifest(hirota).replace(f"{section}\n", f"{section}\n[bogus]\n")
    with pytest.raises(ManifestError, match=r"unknown section header '\[bogus\]'"):
        parse_manifest(text)


@pytest.mark.parametrize("declared, message", [
    ("u 1", r"^Diff\(u,x,x\) in equation 0 is above the declared order 1$"),
    ("v 0", r"^Diff\(v,t\) in equation 1 is above the declared order 0$"),
])
def test_manifest_order_above_the_declared_one_is_refused(hirota, declared, message):
    text = write_manifest(hirota).replace(f"{declared[0]} 3", declared)
    with pytest.raises(ExprError, match=message):
        parse_manifest(text)


def test_solved_forms_above_the_declared_order_are_refused(hirota):
    def system(dependents):
        return PdeSystem("cut", hirota.independents, dependents, hirota.parameters,
                         (), hirota.solved_forms)

    with pytest.raises(ExprError, match=r"^Diff\(u,t\) in a solved key is above .* order 0$"):
        system((("u", 0), ("v", 3)))
    with pytest.raises(ExprError, match=r"^Diff\(u,x,x,x\) in the solved form for Diff\(u,t\) "
                                        r"is above the declared order 2$"):
        system((("u", 2), ("v", 3)))
    assert system(hirota.dependents).dependents == hirota.dependents


@pytest.mark.parametrize("key", ["2*Diff(u,t)", "Diff(u,t)^2", "Diff(u,t) + u", "alpha", "Exp(u)"])
def test_manifest_solved_key_must_be_a_bare_jet(hirota, key):
    text = write_manifest(hirota).replace("Diff(u,t) =", f"{key} =")
    with pytest.raises(ManifestError, match="bare jet"):
        parse_manifest(text)
