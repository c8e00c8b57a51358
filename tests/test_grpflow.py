import random

import numpy as np
import pytest
from conftest import random_expr

from symflow.expr import Expr, ExprError, JetCoordinate, Parameter, parse
from symflow.grpflow import (
    FLOW_VARIABLES,
    FlowMap,
    PoleError,
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
# the one-denominator flow map
# ---------------------------------------------------------------------------


EPSILON = Parameter("epsilon")


def test_rational_equality_by_cross_multiplication():
    f = parse("f")
    eps = parse("epsilon")
    one = Expr.ONE
    lhs = FlowMap(EPSILON, (one - eps * f) * (one - eps * f), {"f": f * (one - eps * f)})
    assert lhs.agrees(FlowMap(EPSILON, one - eps * f, {"f": f})) == {"f": True}
    assert lhs.agrees(FlowMap(EPSILON, one + eps * f, {"f": f})) == {"f": False}


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        FlowMap(EPSILON, Expr.ZERO, {"u": parse("u")})
    # a denominator that vanishes only at a parameter value is refused there
    with pytest.raises(ZeroDivisionError):
        FlowMap(EPSILON, parse("epsilon"), {"u": parse("u")}).at_parameter(Expr.ZERO)


COMPOSE_ATOMS = tuple(JetCoordinate(n) for n in FLOW_VARIABLES) + (EPSILON,)


def _nonzero_polynomial(rng):
    while True:
        e = random_expr(rng, terms=3, atoms=COMPOSE_ATOMS)
        if not e.is_zero():
            return e


def test_composition_matches_evaluation_at_the_images():
    # Mapping polynomials through random numerators over one random shared
    # denominator, then evaluating, must equal evaluating the polynomials at
    # the evaluated quotients.  The image of 1 is the power of den that all
    # the images share.
    rng = random.Random(31)
    for _ in range(30):
        exprs = [random_expr(rng, atoms=COMPOSE_ATOMS) for _ in range(2)]
        mapped = rng.sample(FLOW_VARIABLES, rng.randint(1, 4))
        flow = FlowMap(
            EPSILON,
            _nonzero_polynomial(rng),
            {w: random_expr(rng, terms=3, atoms=COMPOSE_ATOMS) for w in mapped},
        )
        scale, *images = flow.image([Expr.ONE, *exprs])
        point = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a in COMPOSE_ATOMS}
        at_images = dict(point)
        den = flow.den.eval_numeric(point)
        at_images.update({JetCoordinate(w): n.eval_numeric(point) / den for w, n in flow.nums.items()})
        for e, image in zip(exprs, images):
            expected = e.eval_numeric(at_images)
            got = image.eval_numeric(point) / scale.eval_numeric(point)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_composition_rejects_a_negative_power_of_a_mapped_atom():
    # a monomial image could be inverted, so the check must be explicit
    for flow in (FlowMap(EPSILON, Expr.ONE, {"u": parse("2*u")}), closed_form_flow()):
        with pytest.raises(ExprError, match="negative power"):
            flow.image([parse("phi/u")])


def test_epsilon_derivative_keeps_one_squared_denominator():
    # d/d(eps) f/(1 - eps f) = f^2/(1 - eps f)^2
    flow = closed_form_flow()
    derivative = flow.d_epsilon()
    assert derivative.den == flow.den * flow.den
    square = FlowMap(EPSILON, flow.den * flow.den, {"f": parse("f^2")})
    assert square.agrees(derivative) == {"f": True}


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
    assert (flow.nums["u"] * den - (u * den + eps * phi**2) * flow.den).is_zero()


def test_quotient_form_agrees_with_offset_form():
    # (eps f u - eps phi^2 - u)/(eps f - 1) equals u + eps phi^2/(1 - eps f)
    u, phi, f = parse("u"), parse("phi"), parse("f")
    eps = parse("epsilon")
    quotient = FlowMap(EPSILON, eps * f - Expr.ONE, {"u": eps * f * u - eps * phi**2 - u})
    assert quotient.agrees(closed_form_flow()) == {"u": True}


def test_flow_satisfies_generating_odes():
    assert all(flow_satisfies_odes(closed_form_flow()).values())


def test_group_law_holds():
    assert all(flow_group_law(closed_form_flow()).values())


def test_potential_group_law_identity():
    # f/(1-e1 f) pushed through the flow at e2 equals f/(1-(e1+e2) f)
    flow = closed_form_flow()
    composed = flow.at_parameter(parse("c2")).after(flow.at_parameter(parse("c1")))
    f = parse("f")
    target = FlowMap(Parameter("c2"), Expr.ONE - (parse("c1") + parse("c2")) * f, {"f": f})
    assert target.agrees(composed) == {"f": True}


def test_infinitesimal_term_is_the_generator():
    assert all(flow_infinitesimal(closed_form_flow()).values())


def test_sign_variant_fails_ode_and_group_law():
    odes = flow_satisfies_odes(sign_variant_flow())
    assert odes["u"] and odes["v"]  # the sign enters squared
    assert not odes["phi"] and not odes["psi"] and not odes["f"]
    law = flow_group_law(sign_variant_flow())
    assert not law["f"] and not law["phi"] and not law["psi"]
    # u and v fail too: the composed denominator 1 - eps2*f sees the sign of f
    assert not law["u"] and not law["v"]


def test_variant_and_primary_differ_by_sign_on_eigenfunctions():
    good = closed_form_flow()
    variant = sign_variant_flow()
    assert variant.den == good.den
    for name in FLOW_VARIABLES:
        sign = -1 if name in ("phi", "psi", "f") else 1
        assert variant.nums[name] == sign * good.nums[name]


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
        exact = map_solution(initial, 0.6)
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
        exact = map_solution(initial, epsilon)
        numeric = ivp_oracle(initial, epsilon, 200)
        assert max(abs(exact[n] - numeric[n]) for n in FLOW_VARIABLES) < 1e-7
        # the grid path on a 1x1 grid runs the same certified rules
        gridded = map_solution({n: np.full((1, 1), initial[n]) for n in FLOW_VARIABLES}, epsilon)
        assert max(abs(gridded[n][0, 0] - numeric[n]) for n in FLOW_VARIABLES) < 1e-7


def test_pole_proximity_raises():
    with pytest.raises(PoleError):
        ivp_oracle({"u": 0, "v": 0, "phi": 0, "psi": 0, "f": 1.0}, 1.0, 100)
    # the closed form refuses a state on the pole as well
    with pytest.raises(PoleError, match="at f = 2") as raised:
        map_solution({"u": 0, "v": 0, "phi": 0, "psi": 0, "f": 2.0}, 0.5)
    # a scalar state is on no grid, so the message names no grid index
    assert "grid" not in str(raised.value) and "index" not in str(raised.value)


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
    checks = verify_flow_properties(seed=11)
    assert all(ok for ok, _detail in checks.values())
    assert "flow-group-law" in checks and "sign-variant-fails-group-law" in checks
