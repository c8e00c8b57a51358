import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from symflow import numcheck
from symflow.expr import Expr, JetCoordinate, Parameter, parse
from symflow.grpflow import POLE_TOLERANCE, map_solution
from symflow.jetsys import SolvedFormClosure, builtin_hirota
from symflow.numcheck import (
    BLOCK_ROWS,
    DEFAULT_EPSILON,
    DEFAULT_PARAMS,
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
    assert pde_residual(vacuum) < 1e-12


def test_grid_too_small_raises():
    g = Grid(x0=0, dx=0.1, nx=5, t0=0, dt=0.1, nt=5,
             fields={"u": np.zeros((5, 5), complex), "v": np.zeros((5, 5), complex)})
    with pytest.raises(ValueError, match="stencil"):
        pde_residual(g)


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
        maxima.append(pde_residual(grid))
    assert maxima[1] > maxima[0]  # refinement amplifies a non-solution


# the residual as one whole-array evaluation, each difference formed on
# the full width and then cut to the interior: the reference the blockwise
# residual must reproduce bit for bit
_WHOLE_ARRAY_DIFFERENCES = {
    (): lambda w, dx, dt: w[1:-1, 2:-2],
    ("t",): lambda w, dx, dt: ((w[2:, :] - w[:-2, :]) / (2 * dt))[:, 2:-2],
    ("x",): lambda w, dx, dt: ((w[:, 2:] - w[:, :-2]) / (2 * dx))[1:-1, 1:-1],
    ("x", "x"): lambda w, dx, dt: ((w[:, 2:] - 2 * w[:, 1:-1] + w[:, :-2]) / dx**2)[1:-1, 1:-1],
    ("x", "x", "x"): lambda w, dx, dt: (
        (w[:, 4:] - 2 * w[:, 3:-1] + 2 * w[:, 1:-3] - w[:, :-4]) / (2 * dx**3)
    )[1:-1, :],
}


def whole_array_residual(grid: Grid) -> float:
    system = builtin_hirota()
    worst = 0.0
    for equation in system.equations:
        env = {Parameter(p): grid.params[p] for p in system.parameters}
        for a in equation.jet_atoms():
            env[a] = _WHOLE_ARRAY_DIFFERENCES[a.index](grid.fields[a.name], grid.dx, grid.dt)
        worst = max(worst, float(np.max(np.abs(equation.eval_numeric(env)))))
    return worst


def _moved(grid: Grid) -> Grid:
    return dataclasses.replace(grid, fields=map_solution(grid.fields, DEFAULT_EPSILON))


# 7 rows, one block's interior exactly, one block and one or two rows more,
# two blocks and three rows more, the default grid
@pytest.mark.parametrize("nt", [7, BLOCK_ROWS + 2, BLOCK_ROWS + 3, BLOCK_ROWS + 4,
                                2 * BLOCK_ROWS + 5, 101])
def test_blockwise_residual_equals_the_whole_array_formula_bit_for_bit(nt):
    moved = _moved(make_vacuum_grid({"alpha": 2.0, "beta": 1.5}, nx=41, nt=nt))
    assert pde_residual(moved) == whole_array_residual(moved) > 0


def test_the_study_equals_whole_grids_mapped_at_once_bit_for_bit():
    residuals, _orders = transformed_residual_orders(DEFAULT_EPSILON)
    assert residuals == [
        whole_array_residual(_moved(make_vacuum_grid(nx=nx, nt=nt)))
        for nx, nt in REFINEMENT_LEVELS
    ]


def test_the_study_holds_one_block_of_t_rows_in_memory():
    transformed_residual_orders(DEFAULT_EPSILON)  # warm the certified forms and rules
    tracemalloc.start()
    try:
        transformed_residual_orders(DEFAULT_EPSILON)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # three whole 201 x 101 levels at once reach 5.6 MB


def test_no_two_blocks_of_the_study_can_fail_together():
    # The first block that fails to map ends the study, which is the one
    # failure there is: a pole needs |1 - epsilon*f| < POLE_TOLERANCE, so
    # two poles in different t-rows (so possibly different blocks) need f
    # values within a relative 2*tol/(1 - tol) of each other; and an image
    # overflows only for |epsilon| > 1.8e302 (|phi| = |psi| = 1), where a
    # pole needs 0 < |f| < 6e-303.
    bound = 2 * POLE_TOLERANCE / (1 - POLE_TOLERANCE)
    for nx, nt in REFINEMENT_LEVELS:
        f = make_vacuum_grid(DEFAULT_PARAMS, nx=nx, nt=nt).fields["f"]
        assert not f.imag.any()
        order = np.argsort(f.real, axis=None)
        values = f.real.ravel()[order]
        rows = np.repeat(np.arange(nt), nx)[order]
        assert np.abs(values[values != 0]).min() > 1e-300
        # sorted, the closest pair of one sign in different t-rows is adjacent
        a, b = values[:-1], values[1:]
        across = (rows[:-1] != rows[1:]) & (a * b > 0)
        assert ((b - a)[across] / np.maximum(abs(a), abs(b))[across]).min() > bound


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
    in_memory = pde_residual(dataclasses.replace(grid, fields=moved))
    round_trip = pde_residual(dataclasses.replace(back, fields=moved))
    assert round_trip == in_memory < 1e-3


def test_old_grid_header_reads_without_parameters():
    text = write_grid(make_vacuum_grid(nx=9, nt=8))
    header, rest = text.split("\n", 1)
    old = " ".join(header.split()[:7]) + "\n" + rest
    grid = read_grid(old)
    assert grid.params == {}
    with pytest.raises(ValueError, match="alpha, beta"):
        pde_residual(grid)


def test_truncated_grid_file_names_the_line():
    text = write_grid(make_vacuum_grid(nx=9, nt=8))
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(ValueError, match=r"line \d+: field 'v' has 5 of its 8 rows"):
        read_grid(truncated)


def test_a_short_field_before_another_is_named_at_its_header():
    lines = write_grid(make_vacuum_grid(nx=9, nt=8)).splitlines()
    header = lines.index("field u")
    del lines[header + 1]
    with pytest.raises(ValueError, match=rf"^line {header + 1}: field 'u' has 7 of its 8 rows$"):
        read_grid("\n".join(lines) + "\n")


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


def test_grid_file_rejects_a_repeated_header_parameter():
    text = _vacuum_text()
    header, rest = text.split("\n", 1)
    assert "alpha=1.0+0.0i" in header
    with pytest.raises(ValueError, match=r"^line 1: parameter 'alpha' appears twice$"):
        read_grid(header + " alpha=7.0+0.0i\n" + rest)


@pytest.mark.parametrize("nx, nt", [("9", "0"), ("9", "-1"), ("9", "-2"), ("0", "8")])
def test_grid_file_rejects_a_size_below_one(nx, nt):
    header, rest = _vacuum_text().split("\n", 1)
    assert header.startswith("grid 9 8 ")
    message = rf"^line 1: nx and nt must be positive, got {nx} and {nt}$"
    with pytest.raises(ValueError, match=message):
        read_grid(header.replace("grid 9 8 ", f"grid {nx} {nt} ", 1) + "\n" + rest)


def _comment_then_spacing(word, value):
    """A vacuum grid file behind one comment line, with header word
    ``word`` (4 is dx, 6 is dt) set to ``value``."""
    header, rest = _vacuum_text().split("\n", 1)
    words = header.split()
    words[word] = value
    return "# a comment\n" + " ".join(words) + "\n" + rest


@pytest.mark.parametrize("word, value", [(4, "0"), (4, "-1"), (6, "0.0")])
def test_grid_file_with_a_spacing_not_positive_names_the_header_line(word, value):
    with pytest.raises(ValueError, match=r"^line 2: grid spacings must be positive$"):
        read_grid(_comment_then_spacing(word, value))


@pytest.mark.parametrize("change, count", [(-1, 8), (+1, 10)])
def test_grid_file_rejects_a_row_of_the_wrong_length(change, count):
    lines = _vacuum_text().splitlines()
    row = lines.index("field u") + 2
    values = lines[row].split(",")
    lines[row] = ",".join(values[:change] if change < 0 else values + values[:change])
    with pytest.raises(
        ValueError, match=rf"^line {row + 1}: field 'u' row has {count} values, want 9$"
    ):
        read_grid("\n".join(lines) + "\n")


def test_a_header_that_overstates_nx_fails_at_its_row_before_any_allocation():
    header, rest = _vacuum_text().split("\n", 1)
    words = header.split()
    words[1:3] = ["1000000000000", "1"]
    message = r"^line 3: field 'f' row has 9 values, want 1000000000000$"
    with pytest.raises(ValueError, match=message):
        read_grid(" ".join(words) + "\n" + rest)


def test_unknown_seed_parameter_is_named():
    with pytest.raises(ValueError, match="'lam'"):
        make_vacuum_grid({"lam": 0.5})
