"""Seeded inputs and known answers for the four benchmark workloads.

This module never imports ``symflow``: the parent process uses it to
derive every expected verdict without asking the engine, and the worker
uses it only to regenerate the same inputs from the same seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("pipeline", "determining", "candidates", "classification")

# Fresh interpreter per unit (the engine's caches are process-global).
COLD = ("pipeline", "determining")

# ---------------------------------------------------------------------------
# pipeline: `symflow all` in a fresh interpreter
# ---------------------------------------------------------------------------

# The checks `symflow all` passes at the seed commit.  Extra checks are
# allowed; every one listed here must be present with status "pass".
PIPELINE_PASS_CHECKS = frozenset(
    {
        "flatness-of-linear-problem",
        "potential-density-flux-pair",
        "seed-pair-on-evolution-equations",
        "localized-five-component",
        "family-coupled-5",
        "family-prolonged-6",
        "flow-ode-consistency",
        "flow-group-law",
        "flow-identity-at-zero",
        "flow-infinitesimal-generator",
        "sign-variant-fails-group-law",
        "flow-matches-ode-oracle",
        "transformed-seed-residual-order",
        "structure-table",
        "central-elements",
        "normalization-sample",
        "divergence-g1",
        "divergence-g2",
        "divergence-g3",
        "divergence-g4",
        "divergence-g5",
        "divergence-g6",
        "divergence-family",
        "divergence-flux-pair",
        "manifest-roundtrip-hirota",
        "manifest-roundtrip-prolonged",
        "kernel-properties",
    }
)
PIPELINE_SCHEMAS = (1, 2)


def pipeline_seed(seed: int, index: int) -> int:
    """The `--seed` passed to `symflow all` for unit ``index``."""
    return random.Random(f"pipeline:{seed}:{index}").randrange(1, 1_000_000)


def judge_pipeline(verdict: dict) -> list[str]:
    """Reasons the unit's verdict is wrong; empty when it is right.

    ``verdict`` holds the exit code and the parsed JSON report.
    """
    reasons = []
    if verdict.get("exit_code") != 0:
        reasons.append(f"exit code {verdict.get('exit_code')}")
    report = verdict.get("report")
    if not isinstance(report, dict):
        return reasons + ["no JSON report"]
    if report.get("schema") not in PIPELINE_SCHEMAS:
        reasons.append(f"unknown report schema {report.get('schema')!r}")
    checks = report.get("checks")
    if not isinstance(checks, list):
        return reasons + ["report has no check list"]
    passed = set()
    for check in checks:
        status = check.get("status")
        if status not in ("pass", "info"):
            reasons.append(f"check {check.get('name')} is {status}")
        if status == "pass":
            passed.add(check.get("name"))
    missing = sorted(PIPELINE_PASS_CHECKS - passed)
    if missing:
        reasons.append(f"missing passing checks: {', '.join(missing)}")
    return reasons


# ---------------------------------------------------------------------------
# determining: prolonged determining system, then two solution checks
# ---------------------------------------------------------------------------

# sha256 (first 16 hex digits) of the printed constraint list, as
# `constraint_digest` in the worker prints it, at the seed commit.
EXPECTED_DETERMINING = {
    "constraints": 230,
    "linear_homogeneous": True,
    "digest": "327004d4aebe966f",
    "accepts_prolonged_6": True,
    "accepts_prolonged_6_flipped": False,
}


def judge_determining(verdict: dict) -> list[str]:
    return [
        f"{key}: got {verdict.get(key)!r}, want {want!r}"
        for key, want in EXPECTED_DETERMINING.items()
        if verdict.get(key) != want
    ]


# ---------------------------------------------------------------------------
# candidates: specialised family characteristics, valid or perturbed
# ---------------------------------------------------------------------------

FAMILY_CONSTANTS = {
    "coupled-5": ("c1", "c2", "c3", "c4", "c5"),
    "prolonged-6": ("c1", "c2", "c3", "c4", "c5", "c6"),
}

# Every CANDIDATE_BLOCK consecutive units hold exactly PROLONGED_PER_BLOCK
# prolonged-6 candidates (the slow mode, about five times the cost of a
# coupled-5 one), spread evenly, so any run's first n units hold 35% of n
# to within one.  The boundary between the modes sits at the 65th
# percentile: the median (50th) lies well inside the fast mode, and the tail
# percentile (ten samples beyond it) inside the slow mode once a run has 32
# units or more.
CANDIDATE_BLOCK = 20
PROLONGED_PER_BLOCK = 7


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value or not nonzero:
            return value


def candidate_spec(seed: int, index: int) -> dict:
    """Candidate ``index`` of the stream for ``seed``.

    ``constants`` specialise the family; ``kick`` is the multiple of the
    family's fixed non-symmetry that is added (0 keeps it a symmetry).
    By linearity of the linearized equations the answer is known: the
    candidate is a symmetry exactly when ``kick`` is 0.
    """
    slow = (index + 1) * PROLONGED_PER_BLOCK // CANDIDATE_BLOCK > index * PROLONGED_PER_BLOCK // CANDIDATE_BLOCK
    family = "prolonged-6" if slow else "coupled-5"
    rng = random.Random(f"candidates:{seed}:{index}")
    constants = {name: _rational(rng) for name in FAMILY_CONSTANTS[family]}
    kick = _rational(rng, nonzero=True) if rng.random() < 0.5 else Fraction(0)
    return {"family": family, "constants": constants, "kick": kick}


def expected_candidate(spec: dict) -> bool:
    return spec["kick"] == 0


# ---------------------------------------------------------------------------
# classification: one-dimensional subalgebras of span{g1, g2, g3}
# ---------------------------------------------------------------------------

# The paper's brackets: [g1,g2] = g2, [g1,g3] = -g3, [g2,g3] = -2 g1.
STRUCTURE = {(0, 1): (0, 1, 0), (0, 2): (0, 0, -1), (1, 2): (-2, 0, 0)}


def _bracket(i: int, j: int) -> tuple[int, int, int]:
    if i == j:
        return (0, 0, 0)
    if i < j:
        return STRUCTURE[(i, j)]
    return tuple(-c for c in STRUCTURE[(j, i)])


def trace_form(a) -> Fraction:
    """tr(ad_a ad_a) computed from the structure constants above."""
    ad = [
        [sum(Fraction(a[i]) * _bracket(i, j)[k] for i in range(3)) for j in range(3)]
        for k in range(3)
    ]
    return sum(ad[r][s] * ad[s][r] for r in range(3) for s in range(3))


def classification_triple(seed: int, index: int) -> tuple[Fraction, Fraction, Fraction]:
    rng = random.Random(f"classification:{seed}:{index}")
    while True:
        triple = tuple(_rational(rng) for _ in range(3))
        if any(triple):
            return triple


def expected_class(triple) -> dict:
    """Representative, alpha, scale and trace-form sign for one triple.

    The representative is the one the normal form lands on: g2 + alpha*g3
    when the g2 slot is nonzero (alpha from the invariance of the trace
    form, -8 alpha = K(a) / a2^2), else g1 when the g1 slot is nonzero,
    else g3.  The adjoint map by g3 fixes the g2 slot, and fixes the g1
    slot when the g2 slot is zero, so the scale is the inverse of that slot.
    """
    a1, a2, a3 = (Fraction(a) for a in triple)
    killing = trace_form((a1, a2, a3))
    sign = (killing > 0) - (killing < 0)
    if a2:
        return {"representative": "g2 + alpha*g3", "alpha": -killing / (8 * a2 * a2),
                "scale": 1 / a2, "killing_sign": sign, "verified": True}
    if a1:
        return {"representative": "g1", "alpha": None, "scale": 1 / a1,
                "killing_sign": sign, "verified": True}
    return {"representative": "g3", "alpha": None, "scale": 1 / a3,
            "killing_sign": sign, "verified": True}


# ---------------------------------------------------------------------------
# exact rationals on the wire between worker and parent
# ---------------------------------------------------------------------------


def encode(value):
    """JSON-safe form of verdict values (Fractions become 'p/q' strings)."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value
