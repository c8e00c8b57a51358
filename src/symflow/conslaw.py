"""Conservation laws via a formal Lagrangian and adjoint variables.

The prolonged system's eight equations F_1..F_8 are contracted with
multipliers m1..m8 into L = sum m^b F_b.  Euler-Lagrange derivatives of
L by the original dependents give five adjoint equations; isolating one
leading multiplier derivative from each extends the reduction closure,
and the conserved vector assembled from any point symmetry then has an
on-shell divergence that reduces to the zero expression.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Mapping

from .expr import (
    DEFAULT_VOCABULARY,
    Expr,
    ExprError,
    JetCoordinate,
)
from .jetsys import (
    ManifestError,
    SolvedFormClosure,
    builtin_prolonged,
    consistent_assignment,
    numbered_lines,
    read_entries,
    solve_for,
)
from .liealg import COORDINATES, VectorField, family_vector_field

MULTIPLIERS = tuple(f"m{i}" for i in range(1, 9))
FIELD_DEPENDENTS = COORDINATES[2:]
#: Largest sampled divergence a check passes with: on-shell points leave only
#: rounding, below 1e-13 for every built-in vector; off-shell ones give order one.
NUMERIC_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Euler-Lagrange operator
# ---------------------------------------------------------------------------


def euler_lagrange(e: Expr, wrt: str) -> Expr:
    """Alternating-sign total-derivative sum over all jets of ``wrt``.

    Each sorted multi-index is counted once (mixed partials are identified
    in the jet representation).
    """
    total = Expr.ZERO
    for a in e.jet_atoms(wrt):
        term = e.diff(a).total_derivative_along(a.index)
        if len(a.index) % 2:
            term = -term
        total = total + term
    return total


# ---------------------------------------------------------------------------
# formal Lagrangian and adjoint system
# ---------------------------------------------------------------------------


@functools.cache
def formal_lagrangian() -> Expr:
    """L = sum of multiplier times equation over the prolonged corpus.

    Every equation is written leading-derivative-minus-rhs, so L vanishes
    on-shell and is of degree one in the multipliers.
    """
    L = Expr.ZERO
    for name, equation in zip(MULTIPLIERS, builtin_prolonged().equations):
        L = L + Expr.atom(JetCoordinate(name)) * equation
    return L


@dataclass(frozen=True)
class AdjointSystem:
    """The five adjoint equations and the solved multiplier derivatives."""

    equations: tuple[Expr, ...]
    solved_forms: Mapping[JetCoordinate, Expr]


# One leading multiplier derivative is isolated per adjoint equation; any
# single-derivative choice works for reduction, this one keeps the t-rules
# on m1, m2 and the x-rules on m3, m4, m7.
_ADJOINT_TARGETS = (
    ("u", JetCoordinate("m1", ("t",))),
    ("v", JetCoordinate("m2", ("t",))),
    ("phi", JetCoordinate("m3", ("x",))),
    ("psi", JetCoordinate("m4", ("x",))),
    ("f", JetCoordinate("m7", ("x",))),
)


@functools.cache
def adjoint_system() -> AdjointSystem:
    L = formal_lagrangian()
    equations = tuple(euler_lagrange(L, dependent) for dependent, _ in _ADJOINT_TARGETS)
    solved = {
        target: solve_for(equation, target)
        for equation, (_, target) in zip(equations, _ADJOINT_TARGETS)
    }
    return AdjointSystem(equations, solved)


@functools.cache
def combined_closure() -> SolvedFormClosure:
    """System solved forms merged with the adjoint multiplier rules."""
    merged = dict(builtin_prolonged().solved_forms)
    merged.update(adjoint_system().solved_forms)
    return SolvedFormClosure(merged)


# ---------------------------------------------------------------------------
# conserved vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservedVector:
    Tt: Expr
    Tx: Expr


def conserved_vector(vf: VectorField) -> ConservedVector:
    """Instantiate the conserved-vector formula for a point generator
    (Ibragimov, J. Math. Anal. Appl. 333 (2007) 311).  For d in t, x:

        T^d = xi^d L + sum_w sum_(k>=1) sum_(j<k) D_d^j(W^w) (-D_d)^(k-1-j) dL/dw_(d^k)

    with W^w = -sigma_w over the field dependents (multipliers carry no
    characteristic) and k over the orders of the jets of w in L, summed as
    sum_j D_d^j(W^w) C_j with C_j = dL/dw_(d^(j+1)) - D_d C_(j+1) and C = 0
    from the top order on.
    A mixed (x, t) jet of a field dependent in L raises ``ExprError``.
    """
    L = formal_lagrangian()
    partials: dict[tuple[str, str], dict[int, Expr]] = {}
    for a in L.jet_atoms():
        if a.name not in FIELD_DEPENDENTS or not a.index:
            continue
        if len(set(a.index)) > 1:
            raise ExprError(f"formal Lagrangian contains mixed derivative {a}")
        partials.setdefault((a.name, a.index[0]), {})[len(a.index)] = L.diff(a)
    sigma = vf.characteristic()
    T = {d: vf.coefficient(d) * L for d in ("t", "x")}
    for (name, d), by_order in partials.items():
        top = max(by_order)
        derivatives = [-sigma[name]]
        for _ in range(1, top):
            derivatives.append(derivatives[-1].total_derivative(d))
        C = Expr.ZERO
        for j in range(top - 1, -1, -1):
            C = by_order.get(j + 1, Expr.ZERO) - C.total_derivative(d)
            T[d] = T[d] + derivatives[j] * C
    return ConservedVector(Tt=T["t"], Tx=T["x"])


def flux_pair() -> ConservedVector:
    """The potential conservation law: density f_x and flux -f_t, recorded
    through their on-shell local expressions."""
    system = builtin_prolonged()
    density = system.solved_forms[JetCoordinate("f", ("x",))]
    flux = -system.solved_forms[JetCoordinate("f", ("t",))]
    return ConservedVector(Tt=density, Tx=flux)


# ---------------------------------------------------------------------------
# divergence verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceCheck:
    holds: bool
    residual: Expr
    numeric_max: float
    nontrivial: str


def verify_divergence(cv: ConservedVector, numeric_points: int) -> DivergenceCheck:
    """Reduce D_t(Tt) + D_x(Tx) modulo the combined closure, then sample.

    The numeric stage evaluates the *unreduced* divergence at consistent
    points whose multiplier values satisfy the adjoint solved forms, and
    reports the maximum magnitude seen.  Point k is drawn from the fixed
    seed 2024 * 10007 + k, so every run samples the same points.  It holds
    when the residual is 0 and that maximum is at most ``NUMERIC_TOLERANCE``.
    A count below 1 is refused: a numeric stage that samples nothing
    would pass with a maximum of 0.
    """
    if numeric_points < 1:
        raise ExprError(f"numeric_points must be >= 1, not {numeric_points}")
    closure = combined_closure()
    divergence = cv.Tt.total_derivative("t") + cv.Tx.total_derivative("x")
    residual = closure.reduce(divergence)
    rngs = [random.Random(2024 * 10007 + k) for k in range(numeric_points)]
    numeric_max = 0.0
    for point in consistent_assignment(closure, [divergence], rngs):
        numeric_max = max(numeric_max, abs(divergence.eval_numeric(point)))
    if closure.reduce(cv.Tt).is_zero() and closure.reduce(cv.Tx).is_zero():
        nontrivial = "trivial (both components vanish on-shell)"
    else:
        nontrivial = "components nonzero on-shell"
    return DivergenceCheck(
        holds=residual.is_zero() and numeric_max <= NUMERIC_TOLERANCE,
        residual=residual,
        numeric_max=numeric_max,
        nontrivial=nontrivial,
    )


def transcription_residual(text: str) -> dict[str, Expr]:
    """Diagnostic: compare a user-supplied conserved-vector transcription
    with the engine's own family vector, on-shell.

    The file holds ``T1 = expr`` and ``T2 = expr`` lines in the expression
    grammar (constants c1..c6 allowed).  Mismatches are reported, never
    fatal: transcriptions of long printed expressions are best-effort.
    """
    entries = read_entries(numbered_lines(text), {"T1": "T1", "T2": "T2"}.get, DEFAULT_VOCABULARY)
    if set(entries) != {"T1", "T2"}:
        raise ManifestError("transcription needs both T1 and T2")
    ours = conserved_vector(family_vector_field())
    closure = combined_closure()
    return {
        "T1": closure.reduce(entries["T1"] - ours.Tt),
        "T2": closure.reduce(entries["T2"] - ours.Tx),
    }
