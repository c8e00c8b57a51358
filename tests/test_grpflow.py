import math
import random

import numpy as np
import pytest
from conftest import random_expr

from symflow.expr import Expr, ExprError, JetCoordinate, Parameter, parse
from symflow.grpflow import (
    FLOW_VARIABLES,
    PoleError,
    RationalExpr,
    closed_form_at,
    closed_form_flow,
    flow_group_law,
    flow_identity_at_zero,
    flow_infinitesimal,
    flow_satisfies_odes,
    ivp_oracle,
    map_solution,
    sign_variant_flow,
    verify_flow_properties,
)


# ---------------------------------------------------------------------------
# rational layer
# ---------------------------------------------------------------------------


def test_rational_equality_by_cross_multiplication():
    f = parse("f")
    eps = parse("epsilon")
    one = Expr.ONE
    lhs = RationalExpr(f * (one - eps * f), (one - eps * f) * (one - eps * f))
    rhs = RationalExpr(f, one - eps * f)
    assert lhs.equals(rhs)
    assert not lhs.equals(RationalExpr(f, one + eps * f))


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalExpr(parse("u"), Expr.ZERO)


COMPOSE_ATOMS = tuple(JetCoordinate(n) for n in FLOW_VARIABLES) + (Parameter("epsilon"),)


def _nonzero_polynomial(rng):
    while True:
        e = random_expr(rng, terms=3, atoms=COMPOSE_ATOMS)
        if not e.is_zero():
            return e


def test_composition_matches_evaluation_at_the_images():
    # Substituting quotients, then evaluating, must equal evaluating the
    # polynomial at the evaluated quotients.  Denominators are equal up to
    # sign (as in the sign variant), all different, or mixed with 1.
    rng = random.Random(31)
    for case in range(30):
        e = random_expr(rng, atoms=COMPOSE_ATOMS)
        shared = _nonzero_polynomial(rng)
        choices = (
            [shared, -shared],
            [_nonzero_polynomial(rng) for _ in range(3)],
            [shared, -shared, _nonzero_polynomial(rng), Expr.ONE],
        )[case % 3]
        images = {
            a: RationalExpr(random_expr(rng, terms=3, atoms=COMPOSE_ATOMS), rng.choice(choices))
            for a in rng.sample(COMPOSE_ATOMS, rng.randint(1, 4))
        }
        composed = RationalExpr(e, Expr.ONE).substitute(images)
        point = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a in COMPOSE_ATOMS}
        at_images = dict(point)
        at_images.update({a: r.eval_numeric(point) for a, r in images.items()})
        expected = e.eval_numeric(at_images)
        assert composed.eval_numeric(point) == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_composition_rejects_a_negative_power_of_a_mapped_atom():
    # a monomial image could be inverted, so the check must be explicit
    for image in (RationalExpr(parse("2*u"), Expr.ONE), closed_form_flow().rules["u"]):
        with pytest.raises(ExprError, match="negative power"):
            RationalExpr(parse("phi/u"), Expr.ONE).substitute({JetCoordinate("u"): image})


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_flow_is_identity_at_zero():
    assert flow_identity_at_zero(closed_form_flow())


def test_flow_u_rule_definition():
    # u-rule times its denominator minus u*(1 - eps f) - eps phi^2 cancels
    flow = closed_form_flow()
    u, phi, f = parse("u"), parse("phi"), parse("f")
    eps = parse("epsilon")
    den = Expr.ONE - eps * f
    rule = flow.rules["u"]
    assert (rule.num * den - (u * den + eps * phi**2) * rule.den).is_zero()


def test_quotient_form_agrees_with_offset_form():
    # (eps f u - eps phi^2 - u)/(eps f - 1) equals u + eps phi^2/(1 - eps f)
    u, phi, f = parse("u"), parse("phi"), parse("f")
    eps = parse("epsilon")
    quotient = RationalExpr(eps * f * u - eps * phi**2 - u, eps * f - Expr.ONE)
    assert quotient.equals(closed_form_flow().rules["u"])


def test_flow_satisfies_generating_odes():
    assert all(flow_satisfies_odes(closed_form_flow()).values())


def test_group_law_holds():
    assert all(flow_group_law(closed_form_flow).values())


def test_potential_group_law_identity():
    # f/(1-e1 f) pushed through the flow at e2 equals f/(1-(e1+e2) f)
    flow = closed_form_flow
    composed = flow("c2").compose(flow("c1"))
    f = parse("f")
    target = RationalExpr(f, Expr.ONE - (parse("c1") + parse("c2")) * f)
    assert composed["f"].equals(target)


def test_infinitesimal_term_is_the_generator():
    assert all(flow_infinitesimal(closed_form_flow()).values())


def test_sign_variant_fails_ode_and_group_law():
    odes = flow_satisfies_odes(sign_variant_flow())
    assert odes["u"] and odes["v"]  # the sign enters squared
    assert not odes["phi"] and not odes["psi"] and not odes["f"]
    law = flow_group_law(sign_variant_flow)
    assert not law["f"] and not law["phi"] and not law["psi"]


def test_variant_and_primary_differ_by_sign_on_eigenfunctions():
    good = closed_form_flow()
    variant = sign_variant_flow()
    for name in ("phi", "psi", "f"):
        difference = (
            good.rules[name].num * variant.rules[name].den
            + variant.rules[name].num * good.rules[name].den
        )
        assert difference.is_zero()


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def test_scalar_blowup_solution():
    out = ivp_oracle({"u": 0, "v": 0, "phi": 0, "psi": 0, "f": 1}, 0.5, 400)
    assert abs(out["f"] - 2.0) < 1e-8
    for name in ("u", "v", "phi", "psi"):
        assert out[name] == 0


def test_zero_parameter_returns_initial_state():
    initial = {"u": 0.3 + 0.1j, "v": -0.2, "phi": 0.5j, "psi": 0.1, "f": 0.7}
    out = ivp_oracle(initial, 0.0, 1)
    assert out == {n: complex(initial[n]) for n in FLOW_VARIABLES}


def test_oracle_is_fourth_order():
    initial = {"u": 0.2, "v": 0.1, "phi": 0.4, "psi": 0.3, "f": 0.8}

    def err(steps):
        numeric = ivp_oracle(initial, 0.6, steps)
        exact = closed_form_at(initial, 0.6)
        return max(abs(numeric[n] - exact[n]) for n in FLOW_VARIABLES)

    ratio = err(20) / err(40)
    assert 12.0 <= ratio <= 20.0


def test_oracle_approaches_pole_with_fine_steps():
    out = ivp_oracle({"u": 0, "v": 0, "phi": 0, "psi": 0, "f": 1}, 0.999, 40000)
    assert abs(out["f"] - 1000.0) < 0.5


def test_oracle_matches_closed_form_at_random_states():
    rng = random.Random(23)
    for _ in range(10):
        initial = {
            n: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            for n in FLOW_VARIABLES
        }
        epsilon = rng.uniform(0.05, 0.25)
        if abs(1 - epsilon * initial["f"]) < 0.3:
            continue
        exact = closed_form_at(initial, epsilon)
        numeric = ivp_oracle(initial, epsilon, 200)
        assert max(abs(exact[n] - numeric[n]) for n in FLOW_VARIABLES) < 1e-7
        # the grid path on a 1x1 grid runs the same certified rules
        gridded = map_solution({n: np.full((1, 1), initial[n]) for n in FLOW_VARIABLES}, epsilon)
        assert max(abs(gridded[n][0, 0] - numeric[n]) for n in FLOW_VARIABLES) < 1e-7


def test_pole_proximity_raises():
    with pytest.raises(PoleError):
        ivp_oracle({"u": 0, "v": 0, "phi": 0, "psi": 0, "f": 1.0}, 1.0, 100)


# ---------------------------------------------------------------------------
# grid mapping
# ---------------------------------------------------------------------------


def test_map_solution_identity_at_zero():
    fields = {n: np.full((3, 4), 0.3 + 0.2j) for n in FLOW_VARIABLES}
    out = map_solution(fields, 0.0)
    for name in FLOW_VARIABLES:
        assert np.array_equal(out[name], fields[name])


def test_map_solution_pole_detection():
    fields = {n: np.zeros((2, 2), dtype=complex) for n in FLOW_VARIABLES}
    fields["f"][1, 1] = 10.0
    with pytest.raises(PoleError, match=r"\(1, 1\)"):
        map_solution(fields, 0.1)


def test_report_all_green():
    checks = verify_flow_properties()
    assert all(c.ok for c in checks)
    names = {c.name for c in checks}
    assert "flow-group-law" in names and "sign-variant-fails-group-law" in names
