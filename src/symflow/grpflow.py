"""Finite transformation generated by the localized symmetry.

The one-parameter flow of the generator with characteristic
(phi^2, psi^2, phi*f, psi*f, f^2) has the closed form

    u -> u + eps*phi^2/(1 - eps*f)      phi -> phi/(1 - eps*f)
    v -> v + eps*psi^2/(1 - eps*f)      psi -> psi/(1 - eps*f)
                                        f   -> f/(1 - eps*f)

verified here against the defining ODEs, the one-parameter group law,
and an independent fixed-step fourth-order integrator.  The variant with
denominator (eps*f - 1) on phi, psi, f differs by an overall sign; it is
kept as a negative control because it fails both the ODE consistency and
the group-law check (the u, v components are insensitive, the sign
enters them squared).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .expr import (
    Atom,
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

#: |1 - eps*f| below this is a pole, for the oracle and for grid mapping
POLE_TOLERANCE = 1e-6
#: random states, and fourth-order steps per state, of the oracle check
ORACLE_POINTS = 10
ORACLE_STEPS = 200


# ---------------------------------------------------------------------------
# rational layer: pairs of differential polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalExpr:
    """Quotient of two canonical expressions.

    Equality is decided by cross-multiplication, so no polynomial gcd is
    ever needed; substitution does not reduce the fraction.
    """

    num: Expr
    den: Expr

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def of(value) -> "RationalExpr":
        if isinstance(value, RationalExpr):
            return value
        if not isinstance(value, Expr):
            value = Expr.from_scalar(value)
        return RationalExpr(value, Expr.ONE)

    def equals(self, other) -> bool:
        o = RationalExpr.of(other)
        return (self.num * o.den - o.num * self.den).is_zero()

    def diff(self, wrt: Atom) -> "RationalExpr":
        return RationalExpr(
            self.num.diff(wrt) * self.den - self.num * self.den.diff(wrt),
            self.den * self.den,
        )

    def substitute(self, mapping: Mapping[Atom, "RationalExpr | Expr"]) -> "RationalExpr":
        """Replace atoms by quotients; numerator and denominator come out
        over one common denominator, which cancels from their ratio."""
        return RationalExpr(*_compose((self.num, self.den), mapping))

    def eval_numeric(self, assignment) -> complex:
        return self.num.eval_numeric(assignment) / self.den.eval_numeric(assignment)

    def __str__(self):
        if self.den == Expr.ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


#: stands for the common denominator inside :func:`_compose`; the parser
#: cannot produce its name
_COMMON = Parameter("common denominator")


def _compose(exprs: tuple[Expr, ...], mapping) -> list[Expr]:
    """The polynomials ``exprs`` with each atom a replaced by its image
    p_a/q_a, all multiplied by one Q^n.

    Q is the product of the distinct q_a.  Each a becomes p_a * (Q/q_a) / c
    for the placeholder c, which stands for Q; multiplying by c^n, where n
    is the largest degree of a term in the mapped atoms, leaves c with no
    negative power, and c -> Q then gives the polynomials over Q^n.
    """
    images = {a: RationalExpr.of(r) for a, r in mapping.items()}
    denominators = list(dict.fromkeys(r.den for r in images.values()))
    inverse = Expr.atom(_COMMON) ** -1
    replacement = {
        a: math.prod((q for q in denominators if q != r.den), start=r.num) * inverse
        for a, r in images.items()
    }
    powers = [[k for a, k in mono if a in images] for e in exprs for mono, _ in e.items()]
    if any(k < 0 for p in powers for k in p):
        raise ExprError("a negative power of a mapped atom leaves the polynomial ring")
    scale = Expr.atom(_COMMON) ** max(map(sum, powers), default=0)
    common = {_COMMON: math.prod(denominators, start=Expr.ONE)}
    return [(e.substitute(replacement) * scale).substitute(common) for e in exprs]


# ---------------------------------------------------------------------------
# the flow map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowMap:
    epsilon: Parameter
    rules: Mapping[str, RationalExpr]

    def at_parameter(self, value: Expr) -> "FlowMap":
        mapping = {self.epsilon: value}
        return FlowMap(
            self.epsilon,
            {n: r.substitute(mapping) for n, r in self.rules.items()},
        )

    def compose(self, inner: "FlowMap") -> Mapping[str, RationalExpr]:
        """Apply ``inner`` first, then this map (parameters must differ)."""
        substitution = {
            JetCoordinate(name): inner.rules[name] for name in FLOW_VARIABLES
        }
        return {n: r.substitute(substitution) for n, r in self.rules.items()}


@functools.cache
def closed_form_flow(parameter: str = "epsilon") -> FlowMap:
    """The one statement of the finite flow of g2; every other use of the
    flow, symbolic or numeric, evaluates these rules."""
    epsilon = Parameter(parameter)
    eps = Expr.atom(epsilon)
    f = parse("f")
    den = Expr.ONE - eps * f
    rules = {
        "u": RationalExpr(parse("u") * den + eps * parse("phi^2"), den),
        "v": RationalExpr(parse("v") * den + eps * parse("psi^2"), den),
        "phi": RationalExpr(parse("phi"), den),
        "psi": RationalExpr(parse("psi"), den),
        "f": RationalExpr(f, den),
    }
    return FlowMap(epsilon, rules)


def sign_variant_flow(parameter: str = "epsilon") -> FlowMap:
    """Same quotients with denominator eps*f - 1 on phi, psi, f.

    Algebraically this negates those three components; the u, v rules are
    unchanged.  Retained as a documented negative control: see
    :func:`verify_flow_properties`.
    """
    good = closed_form_flow(parameter)
    rules = dict(good.rules)
    for name in ("phi", "psi", "f"):
        rules[name] = RationalExpr(rules[name].num, -rules[name].den)
    return FlowMap(good.epsilon, rules)


# ---------------------------------------------------------------------------
# symbolic property checks
# ---------------------------------------------------------------------------


def flow_satisfies_odes(flow: FlowMap) -> dict[str, bool]:
    """d(rule)/d(eps) must equal the generator characteristic composed with
    the flow, for each transported variable."""
    composed_args = {JetCoordinate(n): flow.rules[n] for n in FLOW_VARIABLES}
    g2 = localized_generator()
    out = {}
    for name in FLOW_VARIABLES:
        lhs = flow.rules[name].diff(flow.epsilon)
        rhs = RationalExpr.of(g2.coefficient(name)).substitute(composed_args)
        out[name] = lhs.equals(rhs)
    return out


def flow_group_law(flow_factory=closed_form_flow) -> dict[str, bool]:
    """flow(eps1) then flow(eps2) must equal flow(eps1 + eps2)."""
    first = flow_factory("c1")
    second = flow_factory("c2")
    composed = second.compose(first)
    total = flow_factory("c1").at_parameter(parse("c1 + c2"))
    return {
        name: composed[name].equals(total.rules[name]) for name in FLOW_VARIABLES
    }


def flow_identity_at_zero(flow: FlowMap) -> bool:
    frozen = flow.at_parameter(Expr.ZERO)
    return all(
        frozen.rules[name].equals(Expr.atom(JetCoordinate(name)))
        for name in FLOW_VARIABLES
    )


def flow_infinitesimal(flow: FlowMap) -> dict[str, bool]:
    """First-order term in eps must reproduce the generator coefficients."""
    g2 = localized_generator()
    out = {}
    for name in FLOW_VARIABLES:
        derivative = flow.rules[name].diff(flow.epsilon)
        at_zero = derivative.substitute({flow.epsilon: Expr.ZERO})
        out[name] = at_zero.equals(g2.coefficient(name))
    return out


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def _ode_rhs(state: dict[str, complex]) -> dict[str, complex]:
    u, v, phi, psi, f = (state[n] for n in FLOW_VARIABLES)
    return {"u": phi * phi, "v": psi * psi, "phi": phi * f, "psi": psi * f, "f": f * f}


def ivp_oracle(
    initial: Mapping[str, complex], epsilon: float, steps: int
) -> dict[str, complex]:
    """Classical fixed-step fourth-order integration of the flow ODEs."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    state = {n: complex(initial[n]) for n in FLOW_VARIABLES}
    h = epsilon / steps
    s = 0.0
    for _ in range(steps):
        remaining = epsilon - s
        if abs(1.0 - remaining * state["f"]) < POLE_TOLERANCE:
            raise PoleError(
                f"flow pole: |1 - (eps - s)*f| < {POLE_TOLERANCE:g} at s = {s:.6g}"
            )
        k1 = _ode_rhs(state)
        k2 = _ode_rhs({n: state[n] + 0.5 * h * k1[n] for n in FLOW_VARIABLES})
        k3 = _ode_rhs({n: state[n] + 0.5 * h * k2[n] for n in FLOW_VARIABLES})
        k4 = _ode_rhs({n: state[n] + h * k3[n] for n in FLOW_VARIABLES})
        state = {
            n: state[n] + h * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n]) / 6.0
            for n in FLOW_VARIABLES
        }
        s += h
    return state


def closed_form_at(values: Mapping[str, complex | np.ndarray], epsilon: float):
    """The rules of :func:`closed_form_flow` evaluated at parameter
    ``epsilon`` on scalar states or on arrays that broadcast together."""
    flow = closed_form_flow()
    assignment = {flow.epsilon: epsilon}
    assignment.update({JetCoordinate(n): values[n] for n in FLOW_VARIABLES})
    return {n: flow.rules[n].eval_numeric(assignment) for n in FLOW_VARIABLES}


# ---------------------------------------------------------------------------
# grid mapping
# ---------------------------------------------------------------------------


def map_solution(fields: Mapping[str, np.ndarray], epsilon: float) -> dict[str, np.ndarray]:
    """Pointwise application of the certified closed-form flow to gridded
    fields; a grid point on the common pole of its rules is an error."""
    import numpy as np
    fields = {n: np.asarray(fields[n], dtype=complex) for n in FLOW_VARIABLES}
    flow = closed_form_flow()
    f = fields["f"]
    den = np.asarray(
        flow.rules["f"].den.eval_numeric({flow.epsilon: epsilon, JetCoordinate("f"): f})
    )
    if np.min(np.abs(den)) < POLE_TOLERANCE:
        index = np.unravel_index(np.argmin(np.abs(den)), den.shape)
        at = complex(f[index])
        f_text = f"{at.real:g}" if at.imag == 0 else f"{at.real:g}{at.imag:+g}i"
        raise PoleError(
            f"flow pole on grid at index {tuple(int(i) for i in index)}: "
            f"1 - epsilon*f = 0 at f = {f_text} (epsilon = {epsilon:g})"
        )
    return closed_form_at(fields, epsilon)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowCheck:
    name: str
    ok: bool
    detail: str = ""


def verify_flow_properties(seed: int = 11) -> list[FlowCheck]:
    """ODE consistency, group law, oracle agreement, and the negative control."""
    checks = []
    flow = closed_form_flow()

    odes = flow_satisfies_odes(flow)
    checks.append(
        FlowCheck("flow-ode-consistency", all(odes.values()), str(odes))
    )
    law = flow_group_law(closed_form_flow)
    checks.append(FlowCheck("flow-group-law", all(law.values()), str(law)))
    checks.append(FlowCheck("flow-identity-at-zero", flow_identity_at_zero(flow)))
    inf = flow_infinitesimal(flow)
    checks.append(
        FlowCheck("flow-infinitesimal-generator", all(inf.values()), str(inf))
    )

    variant_odes = flow_satisfies_odes(sign_variant_flow())
    variant_law = flow_group_law(sign_variant_flow)
    uv_unaffected = variant_odes["u"] and variant_odes["v"]
    rest_fail = not any(variant_odes[n] for n in ("phi", "psi", "f")) and not any(
        variant_law[n] for n in ("phi", "psi", "f")
    )
    checks.append(
        FlowCheck(
            "sign-variant-fails-group-law",
            uv_unaffected and rest_fail,
            f"odes={variant_odes} group-law={variant_law}",
        )
    )

    rng = random.Random(seed)
    worst = 0.0
    tested = 0
    while tested < ORACLE_POINTS:
        initial = {
            n: complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            for n in FLOW_VARIABLES
        }
        epsilon = rng.uniform(0.05, 0.3)
        if abs(1 - epsilon * initial["f"]) < 0.3:
            continue
        tested += 1
        exact = closed_form_at(initial, epsilon)
        numeric = ivp_oracle(initial, epsilon, ORACLE_STEPS)
        worst = max(worst, max(abs(exact[n] - numeric[n]) for n in FLOW_VARIABLES))
    checks.append(
        FlowCheck(
            "flow-matches-ode-oracle",
            worst < 1e-7,
            f"max deviation {worst:.3e} over {ORACLE_POINTS} random states",
        )
    )
    return checks
