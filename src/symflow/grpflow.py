"""Finite transformation generated by the localized symmetry.

The one-parameter flow of g2, the generator with coefficients
(phi^2, psi^2, phi*f, psi*f, f^2), has the closed form

    u -> u + eps*phi^2/(1 - eps*f)      phi -> phi/(1 - eps*f)
    v -> v + eps*psi^2/(1 - eps*f)      psi -> psi/(1 - eps*f)
                                        f   -> f/(1 - eps*f)

every rule a quotient over the one denominator 1 - eps*f.  It is
verified here against the defining ODEs, the one-parameter group law,
and an independent fixed-step fourth-order integrator; one function,
:func:`map_solution`, evaluates it on states and grids.  The variant with
denominator (eps*f - 1) on phi, psi, f differs by an overall sign; it is
kept as a negative control because it fails both the ODE consistency and
the group-law check.  Its u, v components pass the ODE check, where the
sign enters squared, but fail the group law: the composed denominator
1 - eps2*f carries the sign of the mapped f.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .expr import (
    Expr,
    ExprError,
    JetCoordinate,
    Parameter,
    parse,
)
from .liealg import COORDINATES, localized_generator

if TYPE_CHECKING:
    import numpy as np


class PoleError(ExprError):
    """The flow parameter reached the blow-up locus 1 - eps*f = 0."""


#: the transported variables: the dependents of the prolonged system
FLOW_VARIABLES = COORDINATES[2:]

#: |1 - eps*f| below this is a pole, for the oracle and for the closed form
POLE_TOLERANCE = 1e-6
#: random states, and fourth-order steps per state, of the oracle check
ORACLE_POINTS = 10
ORACLE_STEPS = 200


# ---------------------------------------------------------------------------
# the flow map: five quotients over one denominator
# ---------------------------------------------------------------------------


#: stands for the denominator inside :meth:`FlowMap.image`; the parser
#: cannot produce its name
_DEN = Parameter("flow denominator")


@dataclass(frozen=True)
class FlowMap:
    """The map at parameter ``epsilon`` whose rule for w is ``nums[w] / den``.

    Rules compare by cross-multiplication (:meth:`agrees`), so no
    polynomial gcd is ever needed and no quotient is reduced.
    """

    epsilon: Parameter
    den: Expr
    nums: Mapping[str, Expr]

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    def agrees(self, other: "FlowMap") -> dict[str, bool]:
        """Per variable, whether the two maps have the same rule."""
        return {
            w: (n * other.den - other.nums[w] * self.den).is_zero()
            for w, n in self.nums.items()
        }

    def image(self, exprs: list[Expr]) -> list[Expr]:
        """The polynomials ``exprs`` with each variable w replaced by its
        rule, all multiplied by den^n, n the largest degree of a term in the
        variables.

        Each w becomes nums[w]/c for the placeholder c, which stands for
        den; multiplying by c^n leaves c with no negative power, and
        c -> den then gives polynomials.
        """
        inverse = Expr.atom(_DEN) ** -1
        replacement = {JetCoordinate(w): n * inverse for w, n in self.nums.items()}
        powers = [[k for a, k in mono if a in replacement] for e in exprs for mono, _ in e.items()]
        if any(k < 0 for p in powers for k in p):
            raise ExprError("a negative power of a mapped atom leaves the polynomial ring")
        scale = Expr.atom(_DEN) ** max(map(sum, powers), default=0)
        return [(e.substitute(replacement) * scale).substitute({_DEN: self.den}) for e in exprs]

    def at_parameter(self, value: Expr) -> "FlowMap":
        at = {self.epsilon: value}
        return FlowMap(
            self.epsilon,
            self.den.substitute(at),
            {w: n.substitute(at) for w, n in self.nums.items()},
        )

    def after(self, inner: "FlowMap") -> "FlowMap":
        """Apply ``inner`` first, then this map (parameters must differ).

        Numerators and denominator come out over the same power of
        inner.den, which cancels from every rule.
        """
        den, *nums = inner.image([self.den, *self.nums.values()])
        return FlowMap(self.epsilon, den, dict(zip(self.nums, nums)))

    def d_epsilon(self) -> "FlowMap":
        """The rules differentiated in epsilon: (N' D - N D') / D^2."""
        d_den = self.den.diff(self.epsilon)
        return FlowMap(
            self.epsilon,
            self.den * self.den,
            {w: n.diff(self.epsilon) * self.den - n * d_den for w, n in self.nums.items()},
        )


@functools.cache
def closed_form_flow() -> FlowMap:
    """The one statement of the finite flow of g2; every other use of the
    flow, symbolic or numeric, evaluates these rules."""
    epsilon = Parameter("epsilon")
    eps = Expr.atom(epsilon)
    den = Expr.ONE - eps * parse("f")
    nums = {
        "u": parse("u") * den + eps * parse("phi^2"),
        "v": parse("v") * den + eps * parse("psi^2"),
        "phi": parse("phi"),
        "psi": parse("psi"),
        "f": parse("f"),
    }
    return FlowMap(epsilon, den, nums)


def sign_variant_flow() -> FlowMap:
    """The flow with denominator eps*f - 1 on phi, psi, f: their numerators
    negated over the same denominator, the u, v rules unchanged.
    Retained as a documented negative control: see
    :func:`verify_flow_properties`.
    """
    good = closed_form_flow()
    nums = {w: -n if w in ("phi", "psi", "f") else n for w, n in good.nums.items()}
    return FlowMap(good.epsilon, good.den, nums)


def _generator(epsilon: Parameter) -> FlowMap:
    """The coefficients of g2 as rules over the denominator 1."""
    g2 = localized_generator()
    return FlowMap(epsilon, Expr.ONE, {w: g2.coefficient(w) for w in FLOW_VARIABLES})


# ---------------------------------------------------------------------------
# symbolic property checks
# ---------------------------------------------------------------------------


def flow_satisfies_odes(flow: FlowMap) -> dict[str, bool]:
    """d(rule)/d(eps) must equal the generator characteristic composed with
    the flow, for each transported variable."""
    return flow.d_epsilon().agrees(_generator(flow.epsilon).after(flow))


def flow_group_law(flow: FlowMap) -> dict[str, bool]:
    """The map at c1, then the map at c2, must equal the map at c1 + c2."""
    c1, c2 = parse("c1"), parse("c2")
    composed = flow.at_parameter(c2).after(flow.at_parameter(c1))
    return composed.agrees(flow.at_parameter(c1 + c2))


def flow_identity_at_zero(flow: FlowMap) -> bool:
    identity = {w: Expr.atom(JetCoordinate(w)) for w in FLOW_VARIABLES}
    frozen = flow.at_parameter(Expr.ZERO)
    return all(frozen.agrees(FlowMap(flow.epsilon, Expr.ONE, identity)).values())


def flow_infinitesimal(flow: FlowMap) -> dict[str, bool]:
    """First-order term in eps must reproduce the generator coefficients."""
    return flow.d_epsilon().at_parameter(Expr.ZERO).agrees(_generator(flow.epsilon))


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def ivp_oracle(
    initial: Mapping[str, complex], epsilon: float, steps: int
) -> dict[str, complex]:
    """Classical fixed-step fourth-order integration of the flow ODEs
    u' = phi^2, v' = psi^2, phi' = phi*f, psi' = psi*f, f' = f^2.

    No slope reads u or v, so only phi, psi and f take stage values.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u, v, phi, psi, f = (complex(initial[n]) for n in FLOW_VARIABLES)
    h = epsilon / steps
    half = 0.5 * h
    s = 0.0
    for _ in range(steps):
        if abs(1.0 - (epsilon - s) * f) < POLE_TOLERANCE:
            raise PoleError(f"flow pole: |1 - (eps - s)*f| < {POLE_TOLERANCE:g} at s = {s:.6g}")
        u1, v1, phi1, psi1, f1 = phi * phi, psi * psi, phi * f, psi * f, f * f
        p, q, g = phi + half * phi1, psi + half * psi1, f + half * f1
        u2, v2, phi2, psi2, f2 = p * p, q * q, p * g, q * g, g * g
        p, q, g = phi + half * phi2, psi + half * psi2, f + half * f2
        u3, v3, phi3, psi3, f3 = p * p, q * q, p * g, q * g, g * g
        p, q, g = phi + h * phi3, psi + h * psi3, f + h * f3
        u4, v4, phi4, psi4, f4 = p * p, q * q, p * g, q * g, g * g
        u = u + h * (u1 + 2 * u2 + 2 * u3 + u4) / 6.0
        v = v + h * (v1 + 2 * v2 + 2 * v3 + v4) / 6.0
        phi = phi + h * (phi1 + 2 * phi2 + 2 * phi3 + phi4) / 6.0
        psi = psi + h * (psi1 + 2 * psi2 + 2 * psi3 + psi4) / 6.0
        f = f + h * (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
        s += h
    return dict(zip(FLOW_VARIABLES, (u, v, phi, psi, f)))


def map_solution(
    values: Mapping[str, complex | np.ndarray], epsilon: float, first_row: int = 0
):
    """The rules of :func:`closed_form_flow` evaluated at parameter
    ``epsilon`` on scalar states or on gridded fields, arrays that
    broadcast together; a state on the pole 1 - eps*f = 0 is an error, and
    so is an image that overflows to a value that is not finite.  Fields
    that hold a block of a grid's t-rows pass the grid row of their first
    row as ``first_row``, so a pole is named at its grid index."""
    import numpy as np
    flow = closed_form_flow()
    assignment = {flow.epsilon: epsilon}
    assignment.update({JetCoordinate(n): values[n] for n in FLOW_VARIABLES})
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        den = flow.den.eval_numeric(assignment)
        if np.min(np.abs(den)) < POLE_TOLERANCE:
            index = np.unravel_index(np.argmin(np.abs(den)), np.shape(den))
            at = complex(np.asarray(values["f"])[index])
            f_text = f"{at.real:g}" if at.imag == 0 else f"{at.real:g}{at.imag:+g}i"
            cell = tuple(int(i) + (first_row if k == 0 else 0) for k, i in enumerate(index))
            where = f" on grid at index {cell}" if index else ""
            raise PoleError(
                f"flow pole{where}: 1 - epsilon*f = 0 at f = {f_text} (epsilon = {epsilon:g})"
            )
        image = {n: flow.nums[n].eval_numeric(assignment) / den for n in FLOW_VARIABLES}
    if not all(np.all(np.isfinite(w)) for w in image.values()):
        raise ExprError(f"the flow at epsilon = {epsilon:g} overflows: its image is not finite")
    return image


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def verify_flow_properties(seed: int) -> dict[str, tuple[bool, str]]:
    """ODE consistency, group law, oracle agreement, and the negative
    control, as {check name: (ok, detail)} in report order."""
    flow = closed_form_flow()
    odes = flow_satisfies_odes(flow)
    law = flow_group_law(flow)
    inf = flow_infinitesimal(flow)
    checks = {
        "flow-ode-consistency": (all(odes.values()), str(odes)),
        "flow-group-law": (all(law.values()), str(law)),
        "flow-identity-at-zero": (flow_identity_at_zero(flow), ""),
        "flow-infinitesimal-generator": (all(inf.values()), str(inf)),
    }

    variant_odes = flow_satisfies_odes(sign_variant_flow())
    variant_law = flow_group_law(sign_variant_flow())
    uv_unaffected = variant_odes["u"] and variant_odes["v"]
    rest_fail = not any(variant_odes[n] for n in ("phi", "psi", "f")) and not any(
        variant_law[n] for n in ("phi", "psi", "f")
    )
    checks["sign-variant-fails-group-law"] = (
        uv_unaffected and rest_fail, f"odes={variant_odes} group-law={variant_law}"
    )

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(ORACLE_POINTS):
        initial = {
            n: complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            for n in FLOW_VARIABLES
        }
        epsilon = rng.uniform(0.05, 0.3)
        exact = map_solution(initial, epsilon)
        numeric = ivp_oracle(initial, epsilon, ORACLE_STEPS)
        worst = max(worst, max(abs(exact[n] - numeric[n]) for n in FLOW_VARIABLES))
    checks["flow-matches-ode-oracle"] = (
        worst < 1e-7, f"max deviation {worst:.3e} over {ORACLE_POINTS} random states"
    )
    return checks
