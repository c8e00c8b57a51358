import dataclasses
import math

import numpy as np
import pytest

from symflow.expr import Expr, JetCoordinate, parse
from symflow.grpflow import map_solution
from symflow.jetsys import SolvedFormClosure
from symflow.numcheck import (
    DEFAULT_EPSILON,
    Grid,
    REFINEMENT_LEVELS,
    make_vacuum_grid,
    pde_residual,
    read_grid,
    transformed_residual_orders,
    vacuum_forms,
    write_grid,
)


@pytest.fixture(scope="module")
def vacuum():
    return make_vacuum_grid()


# ---------------------------------------------------------------------------
# the seed family
# ---------------------------------------------------------------------------


def _solution_closure(forms):
    # a solution is an order-zero solved form: each jet u_J becomes D_J of its form
    return SolvedFormClosure({JetCoordinate(n): form for n, form in forms.items()})


def test_seed_family_satisfies_system_symbolically(prolonged):
    forms = vacuum_forms()
    closure = _solution_closure(forms)
    for equation in prolonged.equations:
        assert closure.reduce(equation).is_zero()
    for name, index in (("phi", ("t", "x")), ("f", ("x", "x", "x"))):
        expected = forms[name].total_derivative_along(index)
        assert closure.rule(JetCoordinate(name, index)) == expected


def test_seed_mutation_is_detected(prolonged):
    forms = dict(vacuum_forms())
    forms["f"] = forms["f"] + parse("x^2")
    closure = _solution_closure(forms)
    hits = [e for e in prolonged.equations if not closure.reduce(e).is_zero()]
    assert hits


def test_eigenfunction_product_is_one(vacuum):
    product = vacuum.fields["phi"] * vacuum.fields["psi"]
    assert float(np.max(np.abs(product - 1.0))) < 1e-12


def test_background_fields_vanish(vacuum):
    assert not vacuum.fields["u"].any()
    assert not vacuum.fields["v"].any()


def test_potential_is_linear_in_x(vacuum):
    f = vacuum.fields["f"]
    assert abs((f[0, 10] - f[0, 3]) - 7 * vacuum.dx) < 1e-12


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_vacuum_residual_is_exactly_zero(vacuum):
    assert pde_residual(vacuum, "u") < 1e-12
    assert pde_residual(vacuum, "v") < 1e-12


def test_grid_too_small_raises():
    g = Grid(x0=0, dx=0.1, nx=5, t0=0, dt=0.1, nt=5,
             fields={"u": np.zeros((5, 5), complex), "v": np.zeros((5, 5), complex)})
    with pytest.raises(ValueError, match="stencil"):
        pde_residual(g, "u")


def test_transformed_grid_residual_converges_at_second_order():
    residuals, orders = transformed_residual_orders(epsilon=DEFAULT_EPSILON)
    assert len(residuals) == 3
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_randomly_perturbed_grid_does_not_converge():
    rng = np.random.default_rng(12)
    maxima = []
    for nx, nt in ((51, 26), (101, 51)):
        grid = make_vacuum_grid(nx=nx, nt=nt)
        grid.fields["u"] = grid.fields["u"] + 0.05 * rng.standard_normal((nt, nx))
        maxima.append(pde_residual(grid, "u"))
    assert maxima[1] > maxima[0]  # refinement amplifies a non-solution


# ---------------------------------------------------------------------------
# conserved drift
# ---------------------------------------------------------------------------


def conserved_drift(grid: Grid) -> float:
    """Violation of I(t) = I(t0) + time-integrated boundary flux.

    I(t) is the trapezoid x-integral of the density f_x over the interior
    stencil range; the flux at the two x-boundaries of that range is f_t.
    Everything is second-order central, interior points only.  f_x is
    conserved identically (D_t f_x = D_x f_t), so the drift measures only
    truncation error.
    """
    f = grid.fields["f"]
    dx, dt = grid.dx, grid.dt
    f_x = (f[:, 2:] - f[:, :-2]) / (2 * dx)  # shape (nt, nx-2)
    f_t = (f[2:, :] - f[:-2, :]) / (2 * dt)  # shape (nt-2, nx)

    # time slices where f_t exists: rows 1..nt-2
    density = f_x[1:-1, :]
    integral = (density[:, 1:] + density[:, :-1]).sum(axis=1) * (dx / 2)
    # density columns span x-indices 1..nx-2; flux is f_t at those endpoints
    net_flux = f_t[:, -2] - f_t[:, 1]

    drift = 0.0
    accumulated = 0j
    for k in range(1, len(integral)):
        accumulated += 0.5 * (net_flux[k - 1] + net_flux[k]) * dt
        drift = max(drift, abs(integral[k] - integral[0] - accumulated))
    return float(drift)


def drift_orders(epsilon: float) -> tuple[list[float], list[float]]:
    """Drift of the flow-transformed seed at each refinement level, and the
    observed orders log2(d_k / d_{k+1})."""
    drifts = []
    for nx, nt in REFINEMENT_LEVELS:
        grid = make_vacuum_grid(nx=nx, nt=nt)
        moved = dataclasses.replace(grid, fields=map_solution(grid.fields, epsilon))
        drifts.append(conserved_drift(moved))
    orders = [math.log2(drifts[k] / drifts[k + 1]) for k in range(len(drifts) - 1)]
    return drifts, orders


def test_vacuum_drift_is_machine_zero(vacuum):
    assert conserved_drift(vacuum) < 1e-12


def test_zero_field_integral_is_zero():
    g = Grid(x0=0, dx=0.1, nx=30, t0=0, dt=0.05, nt=12,
             fields={"f": np.zeros((12, 30), complex)})
    assert conserved_drift(g) == 0.0


def test_transformed_drift_converges_at_second_order():
    drifts, orders = drift_orders(epsilon=DEFAULT_EPSILON)
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_transformed_fields_stay_clear_of_the_pole(vacuum):
    barred = map_solution(vacuum.fields, DEFAULT_EPSILON)
    assert np.min(np.abs(1 - DEFAULT_EPSILON * vacuum.fields["f"])) > 0.3
    assert np.isfinite(barred["u"]).all()


# ---------------------------------------------------------------------------
# grid evaluation and file format
# ---------------------------------------------------------------------------


def test_eval_on_grid_matches_pointwise():
    # Expr.eval_numeric is the one evaluator: numpy arrays broadcast with scalars
    e = parse("alpha*x^2 + Exp(I*lambda*t)")
    from symflow.expr import IndependentVariable, Parameter

    x = np.linspace(-1, 1, 5)
    t = np.linspace(0, 1, 5)
    env = {
        IndependentVariable("x"): x,
        IndependentVariable("t"): t,
        Parameter("alpha"): 2.0,
        Parameter("lambda"): 0.5,
    }
    values = e.eval_numeric(env)
    expected = 2.0 * x**2 + np.exp(0.5j * t)
    assert np.allclose(values, expected, atol=1e-15)
    for k in range(len(x)):
        point = {**env, IndependentVariable("x"): x[k], IndependentVariable("t"): t[k]}
        assert values[k] == e.eval_numeric(point)


def test_grid_file_round_trip_is_bit_exact():
    grid = make_vacuum_grid(nx=9, nt=8)
    text = write_grid(grid)
    back = read_grid(text)
    for name, array in grid.fields.items():
        assert np.array_equal(array, back.fields[name])
    assert write_grid(back) == text


def test_grid_file_negative_and_exponent_literals():
    g = Grid(x0=-1.0, dx=0.5, nx=2, t0=0.0, dt=1.0, nt=1,
             fields={"u": np.array([[1e-15 - 2.5e-3j, -0.0 + 0.0j]])})
    back = read_grid(write_grid(g))
    assert np.array_equal(back.fields["u"], g.fields["u"])


def test_grid_file_rejects_garbage():
    with pytest.raises(ValueError):
        read_grid("not a grid\n")


def test_grid_file_carries_the_physical_parameters():
    params = {"alpha": 2.0, "beta": 1.5}
    grid = make_vacuum_grid(params, nx=101, nt=51)
    back = read_grid(write_grid(grid))
    assert back.params == grid.params == {"lambda": 0.3, "alpha": 2.0, "beta": 1.5}
    moved = map_solution(grid.fields, DEFAULT_EPSILON)
    in_memory = pde_residual(dataclasses.replace(grid, fields=moved), "u")
    round_trip = pde_residual(dataclasses.replace(back, fields=moved), "u")
    assert round_trip == in_memory < 1e-3


def test_old_grid_header_reads_without_parameters():
    text = write_grid(make_vacuum_grid(nx=9, nt=8))
    header, rest = text.split("\n", 1)
    old = " ".join(header.split()[:7]) + "\n" + rest
    grid = read_grid(old)
    assert grid.params == {}
    with pytest.raises(ValueError, match="alpha, beta"):
        pde_residual(grid, "u")


def test_truncated_grid_file_names_the_line():
    text = write_grid(make_vacuum_grid(nx=9, nt=8))
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(ValueError, match=r"line \d+: field 'v' has 5 of its 8 rows"):
        read_grid(truncated)


def _vacuum_text():
    return write_grid(make_vacuum_grid(nx=9, nt=8))


def test_grid_file_rejects_a_non_finite_field_value():
    lines = _vacuum_text().splitlines()
    f_block = lines.index("field f")
    values = lines[f_block + 3].split(",")
    values[4] = "nan+0.0i"
    lines[f_block + 3] = ",".join(values)
    with pytest.raises(ValueError, match=rf"^line {f_block + 4}: non-finite value 'nan\+0.0i'"):
        read_grid("\n".join(lines) + "\n")


@pytest.mark.parametrize("entry, damaged", [
    ("alpha=1.0+0.0i", "alpha=inf+0.0i"),
    (" 0.0 0.07142857142857142 ", " 0.0 nan "),
])
def test_grid_file_rejects_a_non_finite_header_number(entry, damaged):
    text = _vacuum_text()
    assert entry in text.splitlines()[0]
    with pytest.raises(ValueError, match=r"^line 1: non-finite"):
        read_grid(text.replace(entry, damaged, 1))


def test_grid_file_rejects_a_repeated_field():
    lines = _vacuum_text().splitlines()
    u_block = lines.index("field u")
    repeated = lines + lines[u_block : u_block + 9]
    with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: field 'u' appears twice"):
        read_grid("\n".join(repeated) + "\n")


def test_unknown_seed_parameter_is_named():
    with pytest.raises(ValueError, match="'lam'"):
        make_vacuum_grid({"lam": 0.5})
