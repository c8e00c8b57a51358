"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or ``symflow all`` for the CLI equivalent.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from symflow.expr import (
    Expr,
    JetCoordinate,
    Parameter,
    jet,
    parse,
    to_text,
)
from symflow import conslaw, grpflow, jetsys, liealg, linsym, numcheck
from symflow.cli import _rebuilds_to_itself
from conftest import random_expr


def _verdict(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def _mutated(family: linsym.PointFamily, dep: str, eta: str) -> linsym.PointFamily:
    """The family with one coefficient replaced."""
    return dataclasses.replace(family, etas={**family.etas, dep: parse(eta)})


def test_criterion_1_zero_curvature(prolonged):
    start = time.perf_counter()
    residuals = jetsys.cross_derivative_residuals(prolonged)
    ok = residuals["phi"].is_zero() and residuals["psi"].is_zero()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        1, ok,
        f"eigenfunction flatness residuals reduce to 0 symbolically "
        f"(identically in alpha, beta, lambda) in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_potential_compatibility(prolonged):
    residuals = jetsys.cross_derivative_residuals(prolonged)
    flat = residuals["f"].is_zero()
    check = conslaw.verify_divergence(conslaw.flux_pair(), numeric_points=10)
    _verdict(
        2, flat and check.holds,
        "potential cross-derivative reduces to 0 and the density/flux pair "
        f"passes the divergence check exactly (numeric max {check.numeric_max:.2e})",
    )


def test_criterion_3_nonlocal_symmetry(prolonged):
    check = linsym.verify_symmetry(prolonged, linsym.seed_pair(), equations=(0, 1))
    _verdict(
        3, check.holds,
        "eigenfunction-squared pair satisfies the linearized evolution "
        "equations on-shell with exact zero residual",
    )


def test_criterion_4_localization(prolonged):
    check = linsym.verify_symmetry(prolonged, linsym.localized_characteristic())
    _verdict(
        4, check.holds,
        f"five-component characteristic satisfies all {len(check.residuals)} "
        "linearized prolonged equations exactly",
    )


def test_criterion_5_symmetry_families(prolonged):
    five = linsym.coupled_family().verify(prolonged).holds
    six = linsym.prolonged_family().verify(prolonged).holds
    mutated_five = _mutated(
        linsym.coupled_family(), "u", "2*I*alpha*c1*u*x/(9*beta) + c5*u + c4*phi^2"
    ).verify(prolonged).holds
    mutated_six = _mutated(
        linsym.prolonged_family(), "phi", "(2*c2*f + c1 - c5)*phi/2"
    ).verify(prolonged).holds
    ok = five and six and not mutated_five and not mutated_six
    _verdict(
        5, ok,
        "both families verify with all constants symbolic; single-coefficient "
        "mutations produce nonzero residuals",
    )


def test_criterion_6_finite_flow():
    start = time.perf_counter()
    flow = grpflow.closed_form_flow()
    odes = all(grpflow.flow_satisfies_odes(flow).values())
    law = all(grpflow.flow_group_law(flow).values())

    variant_law = grpflow.flow_group_law(grpflow.sign_variant_flow())
    variant_rejected = not variant_law["f"]

    rng = random.Random(5)
    worst = 0.0
    tested = 0
    while tested < 10:
        initial = {
            n: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            for n in grpflow.FLOW_VARIABLES
        }
        epsilon = rng.uniform(0.05, 0.25)
        if abs(1 - epsilon * initial["f"]) < 0.3:
            continue
        tested += 1
        exact = grpflow.map_solution(initial, epsilon)
        numeric = grpflow.ivp_oracle(initial, epsilon, 200)
        worst = max(
            worst, max(abs(exact[n] - numeric[n]) for n in grpflow.FLOW_VARIABLES)
        )
    oracle_ok = worst < 1e-7

    residuals, orders = numcheck.transformed_residual_orders(numcheck.DEFAULT_EPSILON)
    orders_ok = all(1.7 <= o <= 2.3 for o in orders)
    elapsed = time.perf_counter() - start

    ok = odes and law and variant_rejected and oracle_ok and orders_ok and elapsed < 30
    _verdict(
        6, ok,
        f"flow: ODEs symbolic pass={odes}, group law pass={law}, sign variant "
        f"rejected={variant_rejected}, oracle max dev {worst:.1e} (< 1e-7), "
        f"residual orders {['%.2f' % o for o in orders]} in 2.0 +/- 0.3, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_lie_algebra():
    report = liealg.verify_optimal_system(samples=100, seed=7)
    table = report.table
    n = len(table.basis)
    upper = list(itertools.combinations(range(n), 2))
    pairs = len(upper)
    expected = {
        (0, 1): (0, 1, 0, 0, 0, 0),
        (0, 2): (0, 0, -1, 0, 0, 0),
        (1, 2): (-2, 0, 0, 0, 0, 0),
    }
    def coords(i, j):
        return [table.constants.get((i, j), {}).get(k, 0) for k in range(n)]

    brackets_ok = all(
        all(c == w for c, w in zip(coords(i, j), expected.get((i, j), (0,) * 6)))
        for i, j in upper
    ) and set(table.constants) == {p for i, j in expected for p in ((i, j), (j, i))}
    central_ok = report.central == ("g4", "g5", "g6")
    # Jacobi is asserted inside structure_table; reaching here means it held
    normalized_ok = report.all_verified and all(
        len(r.maps) <= 1 for r in report.records
    )
    cases_ok = all(
        (r.representative == "g1" and r.triple[0] != 0)
        or (r.representative == "g3" and r.triple[2] != 0)
        or (r.representative == "g2 + alpha*g3" and r.triple[1] != 0)
        for r in report.records
    )
    ok = pairs == 15 and brackets_ok and central_ok and normalized_ok and cases_ok
    _verdict(
        7, ok,
        f"15-pair table with [g1,g2]=g2, [g1,g3]=-g3, [g2,g3]=-2g1, centers "
        f"g4,g5,g6, Jacobi exact; 100 seeded triples normalized by <= 1 "
        "adjoint map consistent with their case conditions",
    )


def test_criterion_8_conservation_laws():
    start = time.perf_counter()
    basis = liealg.standard_generators()
    worst = 0.0
    all_hold = True
    for g in basis:
        check = conslaw.verify_divergence(
            conslaw.conserved_vector(g), numeric_points=10
        )
        all_hold = all_hold and check.holds
        worst = max(worst, check.numeric_max)
    cv3 = conslaw.conserved_vector(basis[2])
    pair_ok = cv3.Tt == parse("m8") and cv3.Tx == parse("m7")
    elapsed = time.perf_counter() - start
    ok = all_hold and worst < 1e-9 and pair_ok and elapsed < 300
    _verdict(
        8, ok,
        f"all six generator vectors reduce to symbolic zero divergence; "
        f"numeric max {worst:.1e} (< 1e-9); potential-translation vector is "
        f"the multiplier pair; {elapsed:.1f}s (< 5min)",
    )


def test_criterion_9_kernel_properties(prolonged, hirota):
    rng = random.Random(99)
    commute_fail = 0
    for _ in range(100):
        e = random_expr(rng, allow_exp=True)
        if not (
            e.total_derivative("x").total_derivative("t")
            - e.total_derivative("t").total_derivative("x")
        ).is_zero():
            commute_fail += 1

    euler_fail = 0
    pool = (
        JetCoordinate("u"),
        JetCoordinate("v", ("x",)),
        JetCoordinate("m2"),
        JetCoordinate("phi", ("t",)),
    )
    for _ in range(100):
        a = random_expr(rng, terms=3, atoms=pool)
        b = random_expr(rng, terms=3, atoms=pool)
        divergence = a.total_derivative("x") + b.total_derivative("t")
        for name in ("u", "v", "phi", "m2"):
            if not conslaw.euler_lagrange(divergence, name).is_zero():
                euler_fail += 1

    normal_form_fail = 0
    roundtrip_fail = 0
    shuffle_rng = random.Random(99)  # leaves the cases ``rng`` draws unchanged
    for _ in range(100):
        e = random_expr(rng, allow_exp=True)
        if not _rebuilds_to_itself(e, shuffle_rng):
            normal_form_fail += 1
        if parse(to_text(e)) != e:
            roundtrip_fail += 1
    for system in (hirota, prolonged):
        for e in list(system.equations) + list(system.solved_forms.values()):
            if parse(to_text(e), system.vocabulary) != e:
                roundtrip_fail += 1

    ok = commute_fail == euler_fail == normal_form_fail == roundtrip_fail == 0
    _verdict(
        9, ok,
        "0 failures across >= 100 random cases each: derivative commutation, "
        "Euler-operator annihilation of divergences, order-independent normal form, "
        "and print/parse round trips including the full built-in corpus",
    )
